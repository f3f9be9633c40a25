//! Lock-free partition mailboxes: the intake structure of a DORA worker.
//!
//! DORA's premise is that a partition worker's hot loop touches no
//! centralized synchronization — yet the previous executor funneled every
//! message into a partition through a `Mutex<VecDeque>` channel (the
//! crossbeam shim), a separate SeqCst admission gate, and a `senders`
//! read-write lock. The [`Mailbox`] replaces all three with one
//! purpose-built structure per partition:
//!
//! * **Fresh lane** — a bounded MPSC ring. *Admission is fused into ring
//!   capacity*: reserving a slot (one CAS on the tail counter) **is** the
//!   admission gate, so there is no separate used/waiting handshake. A
//!   producer facing a full ring blocks — back-pressure — until the
//!   consumer frees slots or a deadline passes; the message is then handed
//!   back for a *visible* rejection, never silently dropped. Slots are
//!   freed one per message *taken up for processing* (not per drain), so
//!   the admitted-but-unprocessed bound the old gate enforced is
//!   preserved exactly.
//! * **Priority lane** — an unbounded lock-free list for worker-to-worker
//!   traffic (later-phase actions, finishes, probes). Push is a CAS; a
//!   worker can never block sending to another worker, which rules out
//!   send-side deadlock by construction. The whole lane is drained with a
//!   **single atomic swap** and reversed into FIFO order — the
//!   batch-drain the ring-side consumer mirrors (one lazily published
//!   head counter per segment instead of one lock acquisition per
//!   message).
//! * **Parking** — the crate's one wait primitive ([`crate::wait`]): the
//!   consumer polls both lanes, polls again after each of a bounded number
//!   of `yield_now`s ([`crate::wait::WAIT_YIELDS`] — a partition in a
//!   steady message flow rides publication to publication without a
//!   syscall), and only then advertises that it sleeps, re-verifies both
//!   lanes are empty and parks its thread; producers check the
//!   advertisement *after* publishing and `unpark` only a consumer that
//!   advertised. The two sides are ordered by `SeqCst` fences (the classic
//!   store-buffer pairing), so a wakeup can never be lost, and nobody
//!   enters the kernel unless someone actually sleeps.
//! * **Close protocol** — [`Mailbox::close`] sets a bit *in the ring's
//!   tail counter* so no slot can be claimed afterwards, and the
//!   consumer's final drain seals the priority lane by swapping in a
//!   sentinel ([`Mailbox::seal_priority_into`]). Both ends linearize with
//!   producers on the lane atomics themselves — not on a separate flag —
//!   so a send racing shutdown either lands before the final drain (and
//!   is failed visibly with the rest of the backlog) or is rejected with
//!   [`PushError::Closed`]; it can never strand unobserved.
//!
//! FIFO order is guaranteed *within a lane per producer* — the property
//! the executor relies on — and the ring additionally preserves global
//! claim order across producers.
//!
//! The mailbox is generic over the message type so its concurrency
//! properties can be property-tested with plain integers; the executor
//! instantiates it with `WorkerMsg`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::wait::WaitCell;

/// Why a push did not enqueue. The message is handed back so the caller
/// can fail it visibly (abort the transaction) instead of dropping it.
pub enum PushError<T> {
    /// The fresh ring stayed full past the caller's deadline.
    Full(T),
    /// The mailbox was closed (engine shutdown).
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the message that was not enqueued.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(msg) | PushError::Closed(msg) => msg,
        }
    }
}

impl<T> std::fmt::Debug for PushError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            PushError::Full(_) => "PushError::Full(..)",
            PushError::Closed(_) => "PushError::Closed(..)",
        })
    }
}

/// Why [`Mailbox::park`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parked {
    /// A message may be available (or a spurious wakeup) — drain again.
    Woken,
    /// The caller's deadline passed with no message.
    TimedOut,
    /// The mailbox is closed.
    Closed,
}

/// One ring slot: a message cell plus the publication sequence. A slot at
/// ring position `pos` is published by storing `pos + 1` — a value unique
/// to that position across all wrap-arounds, so no reset store is needed
/// when the consumer takes the message out.
struct Slot<T> {
    seq: AtomicU64,
    msg: UnsafeCell<MaybeUninit<T>>,
}

/// One node of the priority lane's swap list.
struct Node<T> {
    msg: T,
    next: *mut Node<T>,
}

/// Sentinel installed in `prio` by [`Mailbox::seal_priority_into`]. Never
/// dereferenced; no heap allocation can sit at `usize::MAX`, so it cannot
/// collide with a real node. Once installed, a producer's CAS can only
/// observe it and fail — sealing and pushing linearize on the same
/// atomic, which is what makes a post-seal strand impossible.
fn sealed<T>() -> *mut Node<T> {
    usize::MAX as *mut Node<T>
}

/// High bit of `tail`: set by [`Mailbox::close`] so that no fresh-ring
/// position can be claimed afterwards (every claim CAS expects a value
/// without the bit). Ring positions are monotonically increasing message
/// counts and never get near 2^63.
const TAIL_CLOSED: u64 = 1 << 63;

/// A partition worker's input: bounded MPSC fresh ring + unbounded
/// priority list + yield-then-park waiting. See the module docs for the
/// design; one instance per partition, single consumer (the owning
/// worker), any number of producers.
pub struct Mailbox<T> {
    /// Fresh-lane ring storage; length is a power of two.
    slots: Box<[Slot<T>]>,
    /// `slots.len() - 1`, for cheap position-to-index masking.
    mask: u64,
    /// Next ring position a producer may claim (CAS to claim).
    tail: AtomicU64,
    /// Ring positions freed up to here. Published by the consumer one per
    /// message taken up for processing; producers read it for the
    /// capacity check — `tail - head` is the live admission count.
    head: AtomicU64,
    /// Consumer-only cursor: next unread ring position (`head <= read <=
    /// tail`). Messages between `head` and `read` were drained into the
    /// worker but still hold their admission slots.
    read: AtomicU64,
    /// Priority lane: LIFO swap list, reversed into FIFO on drain.
    prio: AtomicPtr<Node<T>>,
    /// Priority-lane length (observability only).
    prio_len: AtomicUsize,
    /// Where the consumer waits for a publication or the close. Producers
    /// call `wake` on it *after* publishing: its `SeqCst` fence pairs with
    /// the one in the consumer's `wait` (store-buffer pattern), so either
    /// the producer sees the consumer's advertisement and unparks it, or
    /// the consumer's emptiness re-check sees the message just published.
    consumer: WaitCell,
    /// Producers blocked on a full fresh ring.
    space_waiters: AtomicUsize,
    space_mutex: Mutex<()>,
    space_cond: Condvar,
    closed: AtomicBool,
}

// SAFETY: the UnsafeCell slots are handed between threads under the ring
// protocol (a slot is written by exactly the producer that claimed its
// position and read by the single consumer only after the `seq` release
// store), and raw list nodes are owned by exactly one side at a time
// (producers until the CAS publishes, the consumer after the swap).
unsafe impl<T: Send> Send for Mailbox<T> {}
unsafe impl<T: Send> Sync for Mailbox<T> {}

impl<T> Mailbox<T> {
    /// Creates a mailbox whose fresh lane admits at most
    /// `capacity.next_power_of_two()` messages (rounded up so positions
    /// can be masked instead of divided; at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        let slots = (0..capacity)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                msg: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Mailbox {
            slots,
            mask: capacity as u64 - 1,
            tail: AtomicU64::new(0),
            head: AtomicU64::new(0),
            read: AtomicU64::new(0),
            prio: AtomicPtr::new(ptr::null_mut()),
            prio_len: AtomicUsize::new(0),
            consumer: WaitCell::new(),
            space_waiters: AtomicUsize::new(0),
            space_mutex: Mutex::new(()),
            space_cond: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    /// Fresh-lane capacity (after power-of-two rounding).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Messages currently admitted to the fresh lane — drained-but-
    /// unprocessed ones included, which is exactly the bound admission
    /// enforces.
    pub fn fresh_len(&self) -> usize {
        let h = self.head.load(Ordering::Acquire);
        let t = self.tail.load(Ordering::Acquire) & !TAIL_CLOSED;
        t.wrapping_sub(h) as usize
    }

    /// Messages currently queued in the priority lane.
    pub fn priority_len(&self) -> usize {
        self.prio_len.load(Ordering::Relaxed)
    }

    /// Total queued messages across both lanes (observability).
    pub fn len(&self) -> usize {
        self.fresh_len() + self.priority_len()
    }

    /// Whether both lanes are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`Mailbox::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Closes the mailbox: every later push fails with
    /// [`PushError::Closed`], blocked producers and a parked consumer are
    /// woken. Already-enqueued messages stay drainable — shutdown drains
    /// a full ring, it never drops admitted work.
    ///
    /// Closing linearizes against ring claims on `tail` itself (the
    /// `TAIL_CLOSED` bit): a producer that raced past the `closed` flag
    /// still cannot claim a slot afterwards, so once the consumer drains
    /// past the post-close `tail` the ring is quiescent forever (see
    /// [`Mailbox::fresh_is_quiescent`]). The priority lane is sealed
    /// separately, by the consumer, via [`Mailbox::seal_priority_into`].
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.tail.fetch_or(TAIL_CLOSED, Ordering::SeqCst);
        self.consumer.wake();
        let _guard = self.space_mutex.lock();
        self.space_cond.notify_all();
    }

    /// One ring-claim attempt: a CAS on `tail` fused with the capacity
    /// check against `head`. Claiming the position *is* admission.
    fn try_push_fresh(&self, msg: T) -> Result<(), PushError<T>> {
        let cap = self.slots.len() as u64;
        let mut t = self.tail.load(Ordering::Relaxed);
        loop {
            if t & TAIL_CLOSED != 0 {
                return Err(PushError::Closed(msg));
            }
            let h = self.head.load(Ordering::Acquire);
            if t.wrapping_sub(h) >= cap {
                return Err(PushError::Full(msg));
            }
            match self
                .tail
                .compare_exchange_weak(t, t + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    // The capacity check above guarantees the consumer is
                    // done with this slot (head moved past its previous
                    // round), so the claimant owns it exclusively.
                    let slot = &self.slots[(t & self.mask) as usize];
                    unsafe { (*slot.msg.get()).write(msg) };
                    slot.seq.store(t + 1, Ordering::Release);
                    return Ok(());
                }
                Err(current) => t = current,
            }
        }
    }

    /// Enqueues onto the fresh lane, blocking while the ring is full up to
    /// `deadline` — admission back-pressure. The uncontended path is one
    /// CAS plus the publication store; the clock and the mutex/condvar are
    /// only consulted once the ring is actually full.
    pub fn push_fresh(&self, msg: T, deadline: Instant) -> Result<(), PushError<T>> {
        if self.is_closed() {
            return Err(PushError::Closed(msg));
        }
        let mut msg = msg;
        loop {
            match self.try_push_fresh(msg) {
                Ok(()) => {
                    self.consumer.wake();
                    return Ok(());
                }
                Err(PushError::Closed(back)) => return Err(PushError::Closed(back)),
                Err(PushError::Full(back)) => msg = back,
            }
            // Full. Register as a waiter, then re-try *while holding the
            // space mutex*: the consumer's notify also takes it, so a slot
            // freed between this re-try and the wait cannot be missed.
            self.space_waiters.fetch_add(1, Ordering::SeqCst);
            let mut guard = self.space_mutex.lock();
            match self.try_push_fresh(msg) {
                Ok(()) => {
                    drop(guard);
                    self.space_waiters.fetch_sub(1, Ordering::SeqCst);
                    self.consumer.wake();
                    return Ok(());
                }
                Err(PushError::Closed(back)) => {
                    drop(guard);
                    self.space_waiters.fetch_sub(1, Ordering::SeqCst);
                    return Err(PushError::Closed(back));
                }
                Err(PushError::Full(back)) => msg = back,
            }
            let now = Instant::now();
            if now >= deadline {
                drop(guard);
                self.space_waiters.fetch_sub(1, Ordering::SeqCst);
                return Err(PushError::Full(msg));
            }
            self.space_cond.wait_for(&mut guard, deadline - now);
            drop(guard);
            self.space_waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Enqueues onto the priority lane: one allocation and one CAS, never
    /// blocks — a worker must never wait on another worker's mailbox.
    ///
    /// The `closed` flag check is only a fast path: the authoritative
    /// rejection is the CAS observing the `sealed` sentinel, which the
    /// consumer installs with its *final* drain
    /// ([`Mailbox::seal_priority_into`]). A producer that raced past the
    /// flag check before [`Mailbox::close`] still cannot link a node in
    /// after that drain — its CAS sees the sentinel and fails — so a
    /// message can never slip in behind the final drain and strand.
    pub fn push_priority(&self, msg: T) -> Result<(), PushError<T>> {
        if self.is_closed() {
            return Err(PushError::Closed(msg));
        }
        let node = Box::into_raw(Box::new(Node {
            msg,
            next: ptr::null_mut(),
        }));
        let mut head = self.prio.load(Ordering::Relaxed);
        loop {
            if head == sealed::<T>() {
                let boxed = unsafe { Box::from_raw(node) };
                return Err(PushError::Closed(boxed.msg));
            }
            unsafe { (*node).next = head };
            match self
                .prio
                .compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(current) => head = current,
            }
        }
        self.prio_len.fetch_add(1, Ordering::Relaxed);
        self.consumer.wake();
        Ok(())
    }

    /// Swings the priority lane's entire ready segment into `out` with a
    /// single atomic swap (reversed into FIFO order). Returns the number
    /// of messages appended. Consumer-only.
    pub fn drain_priority_into(&self, out: &mut Vec<T>) -> usize {
        if self.prio.load(Ordering::Acquire) == sealed::<T>() {
            return 0;
        }
        let mut node = self.prio.swap(ptr::null_mut(), Ordering::Acquire);
        if node.is_null() {
            return 0;
        }
        let start = out.len();
        while !node.is_null() {
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next;
            out.push(boxed.msg);
        }
        let n = out.len() - start;
        out[start..].reverse();
        self.prio_len.fetch_sub(n, Ordering::Relaxed);
        n
    }

    /// The consumer's **final** priority drain: swings the remaining
    /// segment into `out` and installs the `sealed` sentinel in the
    /// same atomic swap, so every producer CAS from this point on fails
    /// with [`PushError::Closed`]. Pushes that won their CAS before the
    /// swap are in the returned segment by construction — the shutdown
    /// drain and late sends linearize on the lane head itself, closing
    /// the check-then-act window a separate `closed` flag would leave.
    /// Consumer-only; idempotent.
    pub fn seal_priority_into(&self, out: &mut Vec<T>) -> usize {
        let mut node = self.prio.swap(sealed::<T>(), Ordering::AcqRel);
        if node == sealed::<T>() || node.is_null() {
            return 0;
        }
        let start = out.len();
        while !node.is_null() {
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next;
            out.push(boxed.msg);
        }
        let n = out.len() - start;
        out[start..].reverse();
        self.prio_len.fetch_sub(n, Ordering::Relaxed);
        n
    }

    /// Like [`Mailbox::drain_priority_into`], but hands each message to
    /// `f` in FIFO order without an intermediate buffer (the segment is
    /// reversed in place on the detached list first). Consumer-only.
    pub fn drain_priority_with(&self, mut f: impl FnMut(T)) -> usize {
        if self.prio.load(Ordering::Acquire) == sealed::<T>() {
            return 0;
        }
        let node = self.prio.swap(ptr::null_mut(), Ordering::Acquire);
        if node.is_null() {
            return 0;
        }
        // Reverse the detached LIFO chain; it is exclusively ours now.
        let mut prev: *mut Node<T> = ptr::null_mut();
        let mut cur = node;
        while !cur.is_null() {
            let next = unsafe { (*cur).next };
            unsafe { (*cur).next = prev };
            prev = cur;
            cur = next;
        }
        let mut n = 0;
        let mut cur = prev;
        while !cur.is_null() {
            let boxed = unsafe { Box::from_raw(cur) };
            cur = boxed.next;
            f(boxed.msg);
            n += 1;
        }
        self.prio_len.fetch_sub(n, Ordering::Relaxed);
        n
    }

    /// Drains every *published* fresh message into `out` in claim order
    /// and returns how many were appended. Consumer-only. Admission slots
    /// are **not** freed here — the caller frees one per message it takes
    /// up for processing via [`Mailbox::free_fresh_slot`], preserving the
    /// admitted-but-unprocessed bound. A claimed-but-unpublished slot
    /// (a producer between its CAS and its publication store) ends the
    /// batch early; the messages behind it surface on the next drain.
    pub fn drain_fresh_into(&self, out: &mut Vec<T>) -> usize {
        let mut r = self.read.load(Ordering::Relaxed);
        let t = self.tail.load(Ordering::Acquire) & !TAIL_CLOSED;
        let mut n = 0;
        while r < t {
            let slot = &self.slots[(r & self.mask) as usize];
            if slot.seq.load(Ordering::Acquire) != r + 1 {
                break;
            }
            out.push(unsafe { (*slot.msg.get()).assume_init_read() });
            r += 1;
            n += 1;
        }
        if n > 0 {
            self.read.store(r, Ordering::Relaxed);
        }
        n
    }

    /// Like [`Mailbox::drain_fresh_into`], but hands each published
    /// message to `f` directly — no intermediate buffer. Consumer-only;
    /// the same slot-freeing contract applies.
    pub fn drain_fresh_with(&self, mut f: impl FnMut(T)) -> usize {
        let mut r = self.read.load(Ordering::Relaxed);
        let t = self.tail.load(Ordering::Acquire) & !TAIL_CLOSED;
        let mut n = 0;
        while r < t {
            let slot = &self.slots[(r & self.mask) as usize];
            if slot.seq.load(Ordering::Acquire) != r + 1 {
                break;
            }
            let msg = unsafe { (*slot.msg.get()).assume_init_read() };
            r += 1;
            n += 1;
            // Advance the cursor before the callback: if `f` panics the
            // message is already accounted as taken, not double-readable.
            self.read.store(r, Ordering::Relaxed);
            f(msg);
        }
        n
    }

    /// The complete shutdown drain of a **closed** mailbox, used by a
    /// worker's shutdown tail and by the supervisor when a worker died
    /// after the close (no replacement will ever drain it): seals the
    /// priority lane — making the drain final, nothing can slip in behind
    /// the sealing swap — then loops the fresh ring to quiescence, since a
    /// producer that claimed its slot before the close may still be
    /// mid-publication on the first pass. Fresh admission slots are freed
    /// here (the messages will never be "taken up for processing" — they
    /// are aborted wholesale). Appends every salvaged message to `out`.
    /// Consumer-only; idempotent.
    pub fn drain_closed_into(&self, out: &mut Vec<T>) {
        debug_assert!(self.is_closed(), "final drain is only defined after close");
        self.seal_priority_into(out);
        loop {
            let drained = self.drain_fresh_into(out);
            for _ in 0..drained {
                self.free_fresh_slot();
            }
            if self.fresh_is_quiescent() {
                break;
            }
            std::thread::yield_now();
        }
    }

    /// Frees one fresh-lane admission slot — called by the consumer when
    /// it takes a drained fresh message up for processing (or aborts it
    /// at shutdown). One release store; blocked producers are only
    /// notified when someone actually waits.
    pub fn free_fresh_slot(&self) {
        let h = self.head.load(Ordering::Relaxed);
        debug_assert!(
            h < self.read.load(Ordering::Relaxed),
            "freed more fresh slots than were drained"
        );
        self.head.store(h + 1, Ordering::Release);
        // Pairs with the waiter's SeqCst registration: either this load
        // sees the waiter, or the waiter's locked re-try sees the new head.
        fence(Ordering::SeqCst);
        if self.space_waiters.load(Ordering::Relaxed) > 0 {
            let _guard = self.space_mutex.lock();
            self.space_cond.notify_all();
        }
    }

    /// Whether any message is (or is about to be) available: a non-empty
    /// priority list, or a claimed fresh slot — published or in the
    /// middle of being published. Consumers use it to skip the park
    /// handshake entirely while traffic keeps flowing (two plain loads
    /// instead of the store-fence-verify dance; [`Mailbox::park`] redoes
    /// the check race-free after advertising the park).
    pub fn has_pending(&self) -> bool {
        let prio = self.prio.load(Ordering::Acquire);
        (!prio.is_null() && prio != sealed::<T>())
            || self.read.load(Ordering::Relaxed) != self.tail.load(Ordering::Acquire) & !TAIL_CLOSED
    }

    /// Whether the fresh ring can never surface another message: the
    /// mailbox is closed (no position can be claimed any more — the
    /// `TAIL_CLOSED` bit makes every claim CAS fail) and the consumer has
    /// read everything claimed before the close. Until this holds, a
    /// producer that raced the close may still be publishing into a slot
    /// it claimed beforehand; the shutdown drain loops on it so that no
    /// admitted message is stranded. Consumer-only.
    pub fn fresh_is_quiescent(&self) -> bool {
        debug_assert!(self.is_closed(), "quiescence is only defined after close");
        self.read.load(Ordering::Relaxed) == self.tail.load(Ordering::Acquire) & !TAIL_CLOSED
    }

    /// Consumer half of the hand-off: waits — poll, bounded yielding polls,
    /// then a real park ([`WaitCell::wait`]) — until a producer publishes,
    /// `deadline` passes, or the mailbox closes. Emptiness is re-verified
    /// *after* advertising the park (with a `SeqCst` fence in between), so
    /// no publication can slip through unnoticed. Consumer-only.
    pub fn park(&self, deadline: Option<Instant>) -> Parked {
        // SAFETY: one waiter at a time — the mailbox's single-consumer
        // contract, the same one every `drain_*` call here relies on.
        let woken = unsafe {
            self.consumer
                .wait(deadline, || self.is_closed() || self.has_pending())
        };
        if self.is_closed() {
            Parked::Closed
        } else if woken {
            Parked::Woken
        } else {
            Parked::TimedOut
        }
    }
}

impl<T> Drop for Mailbox<T> {
    fn drop(&mut self) {
        // Free straggler priority nodes and published fresh messages.
        // Exclusive access (&mut self) means no producer is mid-push, so
        // every claimed slot is published.
        let mut leftovers = Vec::new();
        self.drain_priority_into(&mut leftovers);
        self.drain_fresh_into(&mut leftovers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn deadline_in(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    fn drain_all(mb: &Mailbox<u64>) -> Vec<u64> {
        let mut out = Vec::new();
        mb.drain_priority_into(&mut out);
        let fresh = mb.drain_fresh_into(&mut out);
        for _ in 0..fresh {
            mb.free_fresh_slot();
        }
        out
    }

    #[test]
    fn fresh_lane_is_fifo_across_wraparound() {
        let mb = Mailbox::new(4);
        let mut seen = Vec::new();
        for round in 0..10u64 {
            for i in 0..4 {
                mb.push_fresh(round * 4 + i, deadline_in(100)).unwrap();
            }
            assert_eq!(mb.fresh_len(), 4);
            seen.extend(drain_all(&mb));
        }
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
        assert!(mb.is_empty());
    }

    #[test]
    fn capacity_rounds_up_and_bounds_admission() {
        let mb = Mailbox::new(3);
        assert_eq!(mb.capacity(), 4);
        for i in 0..4 {
            mb.push_fresh(i, deadline_in(50)).unwrap();
        }
        let started = Instant::now();
        match mb.push_fresh(99, deadline_in(30)) {
            Err(PushError::Full(msg)) => assert_eq!(msg, 99),
            _ => panic!("full ring must reject after the deadline"),
        }
        assert!(started.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn slots_free_per_processed_message_not_per_drain() {
        let mb = Mailbox::new(2);
        mb.push_fresh(1, deadline_in(50)).unwrap();
        mb.push_fresh(2, deadline_in(50)).unwrap();
        let mut out = Vec::new();
        assert_eq!(mb.drain_fresh_into(&mut out), 2);
        // Drained but not freed: the ring still counts both against
        // admission.
        assert_eq!(mb.fresh_len(), 2);
        assert!(matches!(
            mb.push_fresh(3, deadline_in(5)),
            Err(PushError::Full(3))
        ));
        mb.free_fresh_slot();
        assert_eq!(mb.fresh_len(), 1);
        mb.push_fresh(3, deadline_in(50)).unwrap();
        mb.free_fresh_slot();
        assert_eq!(drain_all(&mb), vec![3]);
    }

    #[test]
    fn blocked_producer_proceeds_when_a_slot_frees() {
        let mb = Arc::new(Mailbox::new(1));
        mb.push_fresh(1, deadline_in(50)).unwrap();
        let producer = {
            let mb = mb.clone();
            std::thread::spawn(move || mb.push_fresh(2, deadline_in(5_000)).is_ok())
        };
        std::thread::sleep(Duration::from_millis(20));
        let mut out = Vec::new();
        assert_eq!(mb.drain_fresh_into(&mut out), 1);
        mb.free_fresh_slot();
        assert!(producer.join().unwrap(), "blocked push must succeed");
        assert_eq!(drain_all(&mb), vec![2]);
    }

    #[test]
    fn priority_lane_single_swap_drains_fifo() {
        let mb = Mailbox::new(2);
        for i in 0..100 {
            mb.push_priority(i).unwrap();
        }
        assert_eq!(mb.priority_len(), 100);
        let mut out = Vec::new();
        assert_eq!(mb.drain_priority_into(&mut out), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert_eq!(mb.priority_len(), 0);
    }

    #[test]
    fn close_rejects_pushes_but_drains_a_full_ring() {
        let mb = Mailbox::new(4);
        for i in 0..4 {
            mb.push_fresh(i, deadline_in(50)).unwrap();
        }
        mb.push_priority(100).unwrap();
        mb.close();
        assert!(matches!(
            mb.push_fresh(9, deadline_in(50)),
            Err(PushError::Closed(9))
        ));
        assert!(matches!(mb.push_priority(9), Err(PushError::Closed(9))));
        // Everything admitted before the close is still there.
        assert_eq!(drain_all(&mb), vec![100, 0, 1, 2, 3]);
        assert_eq!(mb.park(None), Parked::Closed);
    }

    #[test]
    fn close_wakes_a_blocked_producer() {
        let mb = Arc::new(Mailbox::new(1));
        mb.push_fresh(1, deadline_in(50)).unwrap();
        let producer = {
            let mb = mb.clone();
            std::thread::spawn(move || mb.push_fresh(2, deadline_in(10_000)))
        };
        std::thread::sleep(Duration::from_millis(20));
        mb.close();
        match producer.join().unwrap() {
            Err(PushError::Closed(2)) => {}
            _ => panic!("blocked producer must observe the close promptly"),
        }
    }

    #[test]
    fn park_returns_immediately_when_work_is_pending() {
        let mb = Mailbox::new(2);
        mb.push_priority(1).unwrap();
        assert_eq!(mb.park(None), Parked::Woken);
        let mut out = Vec::new();
        mb.drain_priority_into(&mut out);
        // Expired deadline with nothing queued.
        assert_eq!(mb.park(Some(Instant::now())), Parked::TimedOut);
    }

    #[test]
    fn park_wakes_on_publication_not_timeout() {
        let mb = Arc::new(Mailbox::<u64>::new(2));
        let consumer = {
            let mb = mb.clone();
            std::thread::spawn(move || {
                let started = Instant::now();
                while !mb.has_pending() {
                    mb.park(Some(started + Duration::from_secs(10)));
                    assert!(
                        started.elapsed() < Duration::from_secs(10),
                        "park never woke"
                    );
                }
                started.elapsed()
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        mb.push_fresh(7, deadline_in(100)).unwrap();
        let waited = consumer.join().unwrap();
        assert!(
            waited < Duration::from_secs(5),
            "wakeup must ride the publication, waited {waited:?}"
        );
    }

    #[test]
    fn park_unpark_race_never_loses_a_wakeup() {
        // Hammer the racy window: the consumer parks the moment it sees
        // nothing, the producer publishes one message at a time and waits
        // for it to be consumed. Any lost wakeup deadlocks (caught by the
        // deadline assertion).
        let mb = Arc::new(Mailbox::<u64>::new(1));
        let done = Arc::new(AtomicBool::new(false));
        let rounds = 2_000u64;
        let consumer = {
            let mb = mb.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut got = 0u64;
                let hard_deadline = Instant::now() + Duration::from_secs(30);
                let mut out = Vec::new();
                while got < rounds {
                    assert!(
                        Instant::now() < hard_deadline,
                        "lost wakeup: consumer stuck at {got}/{rounds}"
                    );
                    out.clear();
                    let n = mb.drain_fresh_into(&mut out);
                    for _ in 0..n {
                        mb.free_fresh_slot();
                    }
                    got += n as u64;
                    if n == 0 {
                        mb.park(Some(Instant::now() + Duration::from_secs(5)));
                    }
                }
                done.store(true, Ordering::Release);
                got
            })
        };
        for i in 0..rounds {
            mb.push_fresh(i, deadline_in(10_000)).unwrap();
        }
        assert_eq!(consumer.join().unwrap(), rounds);
        assert!(done.load(Ordering::Acquire));
    }

    #[test]
    fn concurrent_producers_lose_nothing_on_both_lanes() {
        let mb = Arc::new(Mailbox::<u64>::new(8));
        let producers = 4u64;
        let per_producer = 1_000u64;
        let handles: Vec<_> = (0..producers)
            .map(|p| {
                let mb = mb.clone();
                std::thread::spawn(move || {
                    for i in 0..per_producer {
                        let msg = p * per_producer + i;
                        if i % 2 == 0 {
                            mb.push_fresh(msg, deadline_in(30_000)).unwrap();
                        } else {
                            mb.push_priority(msg).unwrap();
                        }
                    }
                })
            })
            .collect();
        let mut seen = Vec::new();
        let mut out = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        while seen.len() < (producers * per_producer) as usize {
            assert!(Instant::now() < deadline, "consumer starved");
            out.clear();
            mb.drain_priority_into(&mut out);
            let fresh = mb.drain_fresh_into(&mut out);
            for _ in 0..fresh {
                mb.free_fresh_slot();
            }
            if out.is_empty() {
                mb.park(Some(Instant::now() + Duration::from_secs(5)));
            }
            seen.extend(out.iter().copied());
        }
        for h in handles {
            h.join().unwrap();
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..producers * per_producer).collect::<Vec<_>>(),
            "no message lost or duplicated"
        );
    }

    #[test]
    fn seal_collects_prior_pushes_then_rejects_at_the_cas() {
        let mb = Mailbox::new(2);
        mb.push_priority(1).unwrap();
        mb.push_priority(2).unwrap();
        let mut out = Vec::new();
        assert_eq!(mb.seal_priority_into(&mut out), 2);
        assert_eq!(out, vec![1, 2]);
        // The sentinel — not the closed flag (never set here) — rejects:
        // this is the CAS-level backstop for a producer that raced past
        // the flag check.
        assert!(matches!(mb.push_priority(3), Err(PushError::Closed(3))));
        assert_eq!(mb.priority_len(), 0);
        // Idempotent, and ordinary drains see a sealed lane as empty.
        assert_eq!(mb.seal_priority_into(&mut out), 0);
        assert_eq!(mb.drain_priority_into(&mut out), 0);
        assert_eq!(mb.drain_priority_with(|_| panic!("sealed")), 0);
        assert!(!mb.has_pending());
    }

    #[test]
    fn close_seal_race_strands_no_priority_message() {
        // Hammer the shutdown window: producers spam the priority lane
        // while the consumer closes and seals. Every push that returned
        // Ok must be accounted for by a drain — the seal's swap is the
        // final drain, so Ok-after-seal is impossible by construction.
        for _ in 0..50 {
            let mb = Arc::new(Mailbox::<u64>::new(1));
            let producers: Vec<_> = (0..2)
                .map(|_| {
                    let mb = mb.clone();
                    std::thread::spawn(move || {
                        let mut ok = 0u64;
                        while mb.push_priority(1).is_ok() {
                            ok += 1;
                        }
                        ok
                    })
                })
                .collect();
            let mut collected = Vec::new();
            mb.drain_priority_into(&mut collected);
            mb.close();
            mb.seal_priority_into(&mut collected);
            let pushed: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
            // Nothing may linger after the seal, and counts must match.
            assert_eq!(mb.priority_len(), 0);
            assert_eq!(collected.len() as u64, pushed, "stranded priority message");
        }
    }

    #[test]
    fn close_fresh_race_strands_no_ring_message() {
        // Same window on the fresh ring: the TAIL_CLOSED bit stops claims
        // the instant close runs, so draining to quiescence afterwards
        // must account for every successful push.
        for _ in 0..50 {
            let mb = Arc::new(Mailbox::<u64>::new(2));
            let producers: Vec<_> = (0..2)
                .map(|_| {
                    let mb = mb.clone();
                    std::thread::spawn(move || {
                        let mut ok = 0u64;
                        loop {
                            match mb.push_fresh(1, Instant::now()) {
                                Ok(()) => ok += 1,
                                Err(PushError::Full(_)) => std::thread::yield_now(),
                                Err(PushError::Closed(_)) => return ok,
                            }
                        }
                    })
                })
                .collect();
            let mut collected = Vec::new();
            let n = mb.drain_fresh_into(&mut collected);
            for _ in 0..n {
                mb.free_fresh_slot();
            }
            mb.close();
            loop {
                let n = mb.drain_fresh_into(&mut collected);
                for _ in 0..n {
                    mb.free_fresh_slot();
                }
                if mb.fresh_is_quiescent() {
                    break;
                }
                std::thread::yield_now();
            }
            let pushed: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(collected.len() as u64, pushed, "stranded fresh message");
            assert_eq!(mb.fresh_len(), 0);
        }
    }

    #[test]
    fn dropping_a_nonempty_mailbox_frees_everything() {
        // Leak-freedom under Drop (nodes and published ring slots); run
        // under Miri/asan this is the interesting case.
        let mb = Mailbox::new(4);
        mb.push_fresh(String::from("a"), deadline_in(50)).unwrap();
        mb.push_priority(String::from("b")).unwrap();
        drop(mb);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;
    use std::time::Duration;

    proptest! {
        /// N producers push disjoint numbered streams through a tiny ring
        /// (forcing wrap-around and full-ring back-pressure) and the
        /// priority lane. No message may be lost or duplicated, and each
        /// producer's stream must stay in order within its lane.
        #[test]
        fn streams_survive_wraparound_intact(params in (1usize..4, 1usize..6, 10u64..60, any::<bool>())) {
            let (cap_exp, producers, per_producer, use_priority) = params;
            let mb = Arc::new(Mailbox::<u64>::new(1 << cap_exp));
            let handles: Vec<_> = (0..producers as u64)
                .map(|p| {
                    let mb = mb.clone();
                    std::thread::spawn(move || {
                        for i in 0..per_producer {
                            let msg = p * 1_000_000 + i;
                            if use_priority && i % 2 == 0 {
                                mb.push_priority(msg).unwrap();
                            } else {
                                mb.push_fresh(msg, Instant::now() + Duration::from_secs(30))
                                    .unwrap();
                            }
                        }
                    })
                })
                .collect();
            let total = producers as u64 * per_producer;
            let mut prio_seen: Vec<u64> = Vec::new();
            let mut fresh_seen: Vec<u64> = Vec::new();
            let mut out = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(30);
            while (prio_seen.len() + fresh_seen.len()) < total as usize {
                prop_assert!(Instant::now() < deadline, "consumer starved");
                out.clear();
                mb.drain_priority_into(&mut out);
                prio_seen.extend(out.iter().copied());
                out.clear();
                let fresh = mb.drain_fresh_into(&mut out);
                for _ in 0..fresh {
                    mb.free_fresh_slot();
                }
                fresh_seen.extend(out.iter().copied());
                if fresh == 0 && prio_seen.len() + fresh_seen.len() < total as usize {
                    mb.park(Some(Instant::now() + Duration::from_secs(5)));
                }
            }
            for h in handles {
                h.join().unwrap();
            }
            // Completeness: every message exactly once.
            let mut all: Vec<u64> = prio_seen.iter().chain(fresh_seen.iter()).copied().collect();
            all.sort_unstable();
            let mut expected: Vec<u64> = (0..producers as u64)
                .flat_map(|p| (0..per_producer).map(move |i| p * 1_000_000 + i))
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(all, expected, "lost or duplicated messages");
            // Per-producer order within each lane.
            for lane in [&prio_seen, &fresh_seen] {
                for p in 0..producers as u64 {
                    let stream: Vec<u64> = lane
                        .iter()
                        .copied()
                        .filter(|m| m / 1_000_000 == p)
                        .collect();
                    prop_assert!(
                        stream.windows(2).all(|w| w[0] < w[1]),
                        "producer {} reordered within a lane: {:?}", p, stream
                    );
                }
            }
        }

        /// Closing with a full ring must reject new pushes yet hand every
        /// admitted message to the drain — shutdown never drops work.
        #[test]
        fn shutdown_drains_a_full_ring(cap_exp in 0usize..5) {
            let cap = 1usize << cap_exp;
            let mb = Mailbox::<u64>::new(cap);
            for i in 0..cap as u64 {
                mb.push_fresh(i, Instant::now() + Duration::from_secs(1)).unwrap();
            }
            mb.close();
            prop_assert!(matches!(
                mb.push_fresh(999, Instant::now() + Duration::from_millis(5)),
                Err(PushError::Closed(999))
            ));
            let mut out = Vec::new();
            let drained = mb.drain_fresh_into(&mut out);
            for _ in 0..drained {
                mb.free_fresh_slot();
            }
            prop_assert_eq!(drained, cap);
            prop_assert_eq!(out, (0..cap as u64).collect::<Vec<_>>());
        }
    }
}
