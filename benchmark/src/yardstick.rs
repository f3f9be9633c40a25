//! The yardstick: a fixed, trivial reference engine of the benchmark's
//! own, driven between slices by the same generator threads in the same
//! closed-loop shape as the engine under test, to say how fast the box is
//! *right now*.
//!
//! The sandbox's two cores are shared with neighbours whose load moves
//! every timing by tens of percent over seconds to minutes (README.md,
//! "Noise"). What the box takes away is not only cycles but wake-ups — a
//! request handed to a thread on a descheduled core waits for the
//! hypervisor — so the yardstick is not a spin loop but a request/reply
//! engine: clients hand a fixed piece of memory-bound work to one of two
//! worker threads over a channel and block on the reply, exactly the
//! hops a transaction makes. A slice's throughput and latencies are
//! reported scaled by how far the yardstick's request rate around that
//! slice was from [`nominal_rate`].
//!
//! Nothing in here may change once a baseline exists: the yardstick *is*
//! the unit the end-to-end metrics are expressed in.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Dependent pseudo-random reads a request makes over the worker's table:
/// a few microseconds, about one short transaction's worth.
const STEPS_PER_REQUEST: u32 = 32;
/// Words in a worker's table (4 MiB: past the private caches).
const TABLE_WORDS: usize = 1 << 19;

/// The yardstick's request rate on the quiet box with `clients` logical
/// clients, in requests per second: the scale the normalised figures are
/// expressed at. One client is the idle shape, anything else the
/// saturated one (sixteen clients on two threads).
pub fn nominal_rate(clients: usize) -> f64 {
    if clients == 1 {
        20_000.0
    } else {
        250_000.0
    }
}

/// A mutex-and-condvar queue: every hand-off to a waiting thread is a
/// futex wake, with none of the adaptive spinning a tuned channel would
/// add — the yardstick must not have a fast mode of its own.
struct Queue<T> {
    items: Mutex<VecDeque<T>>,
    ready: Condvar,
}

impl<T> Queue<T> {
    fn new() -> Arc<Queue<T>> {
        Arc::new(Queue {
            items: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        })
    }

    fn push(&self, item: T) {
        self.items.lock().expect("yardstick queue").push_back(item);
        self.ready.notify_one();
    }

    fn pop(&self) -> T {
        let mut items = self.items.lock().expect("yardstick queue");
        loop {
            match items.pop_front() {
                Some(item) => return item,
                None => items = self.ready.wait(items).expect("yardstick queue"),
            }
        }
    }
}

/// `None` tells the worker to stop.
type Job = Option<Arc<Queue<u64>>>;

/// Two worker threads serving requests.
pub struct Yardstick {
    workers: Vec<(Arc<Queue<Job>>, JoinHandle<()>)>,
}

fn serve(jobs: Arc<Queue<Job>>, seed: u64) {
    let mut x = seed | 1;
    let mut step = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let table: Vec<u64> = (0..TABLE_WORDS).map(|_| step()).collect();
    let mut at = 0usize;
    while let Some(reply) = jobs.pop() {
        for _ in 0..STEPS_PER_REQUEST {
            at = table[at] as usize & (TABLE_WORDS - 1);
        }
        reply.push(at as u64);
    }
}

impl Yardstick {
    /// Starts the worker threads.
    pub fn start(workers: usize) -> Yardstick {
        let workers = (0..workers)
            .map(|id| {
                let jobs = Queue::new();
                let served = jobs.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("yardstick-{id}"))
                    .spawn(move || serve(served, 0x9E37_79B9 + id as u64))
                    .expect("spawn yardstick worker");
                (jobs, handle)
            })
            .collect();
        Yardstick { workers }
    }

    /// Runs `requests` requests per client for `clients` closed-loop
    /// clients multiplexed on the calling thread (`first_client` spreads
    /// the generator threads' clients over the workers) and returns the
    /// rate they were served at, in requests per second.
    pub fn burst(&self, first_client: usize, clients: usize, requests: u32) -> f64 {
        let replies: Vec<Arc<Queue<u64>>> = (0..clients).map(|_| Queue::new()).collect();
        let submit = |client: usize| {
            let (jobs, _) = &self.workers[(first_client + client) % self.workers.len()];
            jobs.push(Some(replies[client].clone()));
        };
        let start = Instant::now();
        for client in 0..clients {
            submit(client);
        }
        for round in 0..requests {
            for (client, reply) in replies.iter().enumerate() {
                std::hint::black_box(reply.pop());
                if round + 1 < requests {
                    submit(client);
                }
            }
        }
        (clients as u32 * requests) as f64 / start.elapsed().as_secs_f64()
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        for (jobs, handle) in self.workers.drain(..) {
            jobs.push(None);
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_serves_every_request_and_shuts_down() {
        let yardstick = Yardstick::start(2);
        let one = yardstick.burst(0, 1, 50);
        let many = yardstick.burst(8, 8, 50);
        assert!(one > 0.0 && one.is_finite() && many > 0.0 && many.is_finite());
        drop(yardstick);
    }
}
