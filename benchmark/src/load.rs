//! The load generator: a few OS threads, each multiplexing several
//! logical closed-loop clients over one engine.
//!
//! A logical client has exactly one transaction outstanding. A generator
//! thread owns `slots` of them and awaits their replies round-robin, so
//! `threads × slots` transactions are in flight while only `threads`
//! client threads compete with the engine's workers for the box's two
//! cores (see README.md, "Load shape"). A reply that arrives while the
//! thread is blocked on an earlier slot is observed late: latencies carry
//! a FIFO-await bias of up to one round, identical for both engines.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use dora_workloads::tatp::{TatpMix, TatpOp};

use crate::engine::{Engine, Reply, WORKERS};
use crate::hist::{median, Hist};
use crate::proc;
use crate::yardstick::{nominal_rate, Yardstick};

/// Yardstick requests per client in a burst between saturated slices …
const SATURATED_BURST_REQUESTS: u32 = 60;
/// … and between idle ones: either way about ten milliseconds.
const IDLE_BURST_REQUESTS: u32 = 150;

/// Which operation stream the clients draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// The standard seven-transaction mix, uniform keys.
    Standard,
    /// 100 % `UpdateLocation` whose companion read is remote half the time.
    Handoff,
}

impl MixKind {
    pub(crate) fn stream(self, subscribers: i64, seed: u64) -> TatpMix {
        match self {
            MixKind::Standard => TatpMix::new(subscribers, seed),
            MixKind::Handoff => TatpMix::update_location_handoff(subscribers, seed, WORKERS, 50),
        }
    }
}

/// How long a pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// `slices` rounds of `slice` of client load. Before the first round
    /// and after every round the generators drain their clients and run
    /// a burst of [`Yardstick`] requests in the same shape, which says
    /// how fast the box was around that slice.
    Timed {
        /// Length of one slice of load.
        slice: Duration,
        /// Number of slices.
        slices: usize,
    },
    /// A fixed number of operations per logical client, unsliced.
    Ops(u64),
}

/// One pass of client load.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Generator threads.
    pub threads: usize,
    /// Logical clients per generator thread.
    pub slots: usize,
    /// When the pass ends.
    pub budget: Budget,
    /// Operation stream.
    pub mix: MixKind,
    /// Subscribers loaded (the key space).
    pub subscribers: i64,
    /// Seed of this pass's streams; client `c` draws stream `seed + c`.
    pub seed: u64,
    /// Also sample queue depth and the generators' context switches
    /// (per-layer runs only: the samples cost the hot loop a branch).
    pub probe: bool,
}

/// Operation counts of a pass (or of everything so far).
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations issued and finished.
    pub attempted: u64,
    /// Operations that failed: neither committed nor a spec miss.
    pub failed: u64,
    /// Client-side resubmissions of transiently aborted operations.
    pub retries: u64,
    /// Net call-forwarding rows the committed operations added.
    pub cf_delta: i64,
    /// The first failure's reason, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Books one finished operation.
    pub fn book(&mut self, op: &TatpOp, reply: Reply) {
        self.attempted += 1;
        match reply {
            Reply::Committed => self.cf_delta += op.cf_delta(),
            Reply::Miss => {}
            Reply::Aborted(reason) => {
                self.failed += 1;
                self.first_failure
                    .get_or_insert_with(|| format!("{}: {reason}", op.name()));
            }
        }
    }

    /// Adds `other`'s counts.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retries += other.retries;
        self.cf_delta += other.cf_delta;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// What the clients saw in one slice of a timed pass.
#[derive(Clone, Default)]
pub struct Slice {
    /// Latency of every operation that finished in the slice.
    pub latency: Hist,
    /// The yardstick's request rate around the slice: per generator
    /// thread the mean of its bursts before and after, summed over the
    /// threads (which burst at the same time).
    pub yardstick_rate: f64,
}

/// What a pass measured.
#[derive(Default)]
pub struct PassResult {
    /// Operation counts.
    pub tally: Tally,
    /// The slices of a timed pass.
    pub slices: Vec<Slice>,
    /// Every latency of the pass, as measured.
    pub all: Hist,
    /// Latencies of the read-only transaction types, as measured.
    pub reads: Hist,
    /// Latencies of the updating transaction types, as measured.
    pub writes: Hist,
    /// Length of one slice.
    pub slice_len: Duration,
    /// Logical clients of the pass.
    pub clients: usize,
    /// Highest sampled engine queue depth (probe passes).
    pub queue_peak: u64,
    /// Involuntary context switches of the generator threads (probe
    /// passes).
    pub gen_invol_ctxsw: u64,
}

impl PassResult {
    /// Completions per second of each slice, as measured.
    pub fn slice_tps(&self) -> Vec<f64> {
        let secs = self.slice_len.as_secs_f64();
        self.slices
            .iter()
            .map(|s| s.latency.count() as f64 / secs)
            .collect()
    }

    /// How much slower than nominal the box was around each slice, by
    /// the yardstick (1.0: nominal; 1.3: everything took 1.3 × as long).
    ///
    /// A yardstick burst now and then runs several times faster than
    /// any other: client and worker thread happened to share a core, so
    /// no wake-up crossed the hypervisor. That says nothing about the
    /// box's speed; slices beside such a burst take the median of the
    /// others.
    pub fn slice_slowdown(&self) -> Vec<f64> {
        let nominal = nominal_rate(self.clients);
        let plausible = |rate: &f64| *rate < 2.0 * nominal;
        let rates: Vec<f64> = self.slices.iter().map(|s| s.yardstick_rate).collect();
        let trusted: Vec<f64> = rates.iter().copied().filter(plausible).collect();
        let fallback = median(if trusted.is_empty() { &rates } else { &trusted });
        rates
            .iter()
            .map(|rate| nominal / if plausible(rate) { *rate } else { fallback })
            .collect()
    }

    /// Completions per second of each slice at nominal box speed.
    pub fn slice_tps_nominal(&self) -> Vec<f64> {
        let raw = self.slice_tps();
        let slow = self.slice_slowdown();
        raw.iter().zip(slow).map(|(tps, slow)| tps * slow).collect()
    }

    /// The `q`-quantile latency of each slice at nominal box speed, in
    /// microseconds.
    pub fn slice_quantile_us_nominal(&self, q: f64) -> Vec<f64> {
        let raw = self.slice_quantile_us(q);
        let slow = self.slice_slowdown();
        raw.iter().zip(slow).map(|(us, slow)| us / slow).collect()
    }

    /// The `q`-quantile latency of each slice as measured, in microseconds.
    pub fn slice_quantile_us(&self, q: f64) -> Vec<f64> {
        self.slices
            .iter()
            .map(|s| s.latency.quantile(q) / 1e3)
            .collect()
    }

    fn absorb(&mut self, other: PassResult) {
        self.tally.absorb(other.tally);
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            mine.latency.merge(&theirs.latency);
            mine.yardstick_rate += theirs.yardstick_rate;
        }
        self.all.merge(&other.all);
        self.reads.merge(&other.reads);
        self.writes.merge(&other.writes);
        self.queue_peak = self.queue_peak.max(other.queue_peak);
        self.gen_invol_ctxsw += other.gen_invol_ctxsw;
    }
}

fn is_read(op: &TatpOp) -> bool {
    matches!(
        op,
        TatpOp::GetSubscriberData { .. }
            | TatpOp::GetNewDestination { .. }
            | TatpOp::GetAccessData { .. }
    )
}

/// One logical client.
struct Slot<E: Engine> {
    mix: TatpMix,
    op: TatpOp,
    /// When the operation's first attempt was built.
    started: Instant,
    attempts: u32,
    finished: u64,
    pending: Option<E::Pending>,
}

impl<E: Engine> Slot<E> {
    fn issue_next(&mut self, engine: &E) {
        self.op = self.mix.next_op();
        self.attempts = 0;
        self.started = Instant::now();
        self.pending = Some(engine.submit(engine.build(&self.op)));
    }
}

/// Runs `pass` against `engine` and returns what the clients saw.
pub fn run_pass<E: Engine>(engine: &E, pass: Pass) -> PassResult {
    let (slices, slice_len) = match pass.budget {
        Budget::Timed { slice, slices } => (slices, slice),
        Budget::Ops(_) => (0, Duration::ZERO),
    };
    let blank = || PassResult {
        slices: vec![Slice::default(); slices],
        slice_len,
        clients: pass.threads * pass.slots,
        ..Default::default()
    };
    let gate = Barrier::new(pass.threads);
    let yardstick = Yardstick::start(WORKERS);
    let yardstick = &yardstick;
    let mut total = blank();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pass.threads)
            .map(|thread| {
                let gate = &gate;
                scope.spawn(move || {
                    let mut out = blank();
                    generate(engine, pass, thread, gate, yardstick, &mut out);
                    out
                })
            })
            .collect();
        for handle in handles {
            total.absorb(handle.join().expect("generator thread panicked"));
        }
    });
    total
}

fn generate<E: Engine>(
    engine: &E,
    pass: Pass,
    thread: usize,
    gate: &Barrier,
    yardstick: &Yardstick,
    out: &mut PassResult,
) {
    let ctxsw_before = if pass.probe {
        proc::thread_invol_ctxsw()
    } else {
        0
    };
    let mut slots: Vec<Slot<E>> = (0..pass.slots)
        .map(|slot| {
            let client = (thread * pass.slots + slot) as u64;
            let mut mix = pass.mix.stream(pass.subscribers, pass.seed + client);
            Slot {
                op: mix.next_op(),
                mix,
                started: Instant::now(),
                attempts: 0,
                finished: 0,
                pending: None,
            }
        })
        .collect();
    match pass.budget {
        Budget::Ops(n) => {
            gate.wait();
            drive(
                engine,
                pass,
                &mut slots,
                None,
                |slot, _| slot.finished < n,
                out,
            );
        }
        Budget::Timed { slice, slices } => {
            let requests = if out.clients == 1 {
                IDLE_BURST_REQUESTS
            } else {
                SATURATED_BURST_REQUESTS
            };
            // The generators enter and leave every burst together, so a
            // burst never competes with the other thread's clients.
            let burst = || {
                gate.wait();
                let rate = yardstick.burst(thread * pass.slots, pass.slots, requests);
                gate.wait();
                rate
            };
            let mut before = burst();
            for index in 0..slices {
                let end = Instant::now() + slice;
                drive(
                    engine,
                    pass,
                    &mut slots,
                    Some(index),
                    |_, now| now < end,
                    out,
                );
                let after = burst();
                out.slices[index].yardstick_rate += (before + after) / 2.0;
                before = after;
            }
        }
    }
    if pass.probe {
        out.gen_invol_ctxsw = proc::thread_invol_ctxsw() - ctxsw_before;
    }
}

/// Keeps every slot's client issuing operations while `more` says so,
/// then lets the outstanding ones finish.
fn drive<E: Engine>(
    engine: &E,
    pass: Pass,
    slots: &mut [Slot<E>],
    slice: Option<usize>,
    more: impl Fn(&Slot<E>, Instant) -> bool,
    out: &mut PassResult,
) {
    for slot in slots.iter_mut() {
        slot.issue_next(engine);
    }
    let mut live = slots.len();
    while live > 0 {
        for slot in slots.iter_mut() {
            let Some(pending) = slot.pending.take() else {
                continue;
            };
            let reply = E::wait(pending);
            if matches!(reply, Reply::Aborted(_)) && slot.attempts < E::CLIENT_RETRIES {
                slot.attempts += 1;
                out.tally.retries += 1;
                slot.pending = Some(engine.submit(engine.build(&slot.op)));
                continue;
            }
            let now = Instant::now();
            let latency = (now - slot.started).as_nanos() as u64;
            out.all.record(latency);
            if is_read(&slot.op) {
                out.reads.record(latency);
            } else {
                out.writes.record(latency);
            }
            if let Some(index) = slice {
                out.slices[index].latency.record(latency);
            }
            out.tally.book(&slot.op, reply);
            slot.finished += 1;
            if pass.probe && out.tally.attempted.is_multiple_of(32) {
                out.queue_peak = out.queue_peak.max(engine.queue_len() as u64);
            }
            if more(slot, now) {
                slot.issue_next(engine);
            } else {
                live -= 1;
            }
        }
    }
}
