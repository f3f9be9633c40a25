//! The traced pass: one logical client, every transaction wrapped in
//! spans recorded by the benchmark around its own calls into the engine.
//!
//! Each transaction is a root span `txn` with children `gen` (draw the
//! operation), `build` (compile it to a flow graph / request body),
//! `submit` (hand it to the engine), `wait` (block on the reply) and
//! `triage` (classify the outcome, book it); a retried operation has one
//! `build`/`submit`/`wait` triple per attempt. Spans stay in memory until
//! the pass is over and are written as a Chrome trace-event file
//! (`chrome://tracing`, <https://ui.perfetto.dev>).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::engine::{Engine, Reply};
use crate::hist::Hist;
use crate::load::{MixKind, Tally};

/// Span names, in the order the report lists them.
pub const KINDS: [&str; 6] = ["txn", "gen", "build", "submit", "wait", "triage"];
const ROOT: u8 = 0;

/// One recorded span. Children name their root through `txn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the transaction (the root span's identifier).
    pub txn: u32,
    /// Index into [`KINDS`].
    pub kind: u8,
    /// Start, in nanoseconds since the pass began.
    pub start: u64,
    /// End, in nanoseconds since the pass began.
    pub end: u64,
}

/// Mean nanoseconds per transaction by span kind, plus the root's self
/// time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Breakdown {
    /// Transactions (root spans).
    pub txns: u64,
    /// Mean duration per transaction of each kind, indexed like [`KINDS`]
    /// (`[0]` is the root itself).
    pub mean_ns: [f64; 6],
    /// Mean root self time: the root's duration minus the part of it its
    /// children cover.
    pub self_ns: f64,
}

impl Breakdown {
    /// How far children + self are from the root, as a share of the root.
    pub fn closure_error(&self) -> f64 {
        let parts: f64 = self.mean_ns[1..].iter().sum::<f64>() + self.self_ns;
        if self.mean_ns[0] == 0.0 {
            0.0
        } else {
            (parts - self.mean_ns[0]).abs() / self.mean_ns[0]
        }
    }
}

/// Folds recorded spans into per-kind means and the roots' self time.
///
/// A root's self time is its duration minus the length of the union of
/// its children's intervals clipped to the root — so overlapping or
/// overhanging children would *not* cancel out, and
/// [`Breakdown::closure_error`] would show them.
pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut sums = [0u64; 6];
    let mut self_sum = 0u64;
    let mut txns = 0u64;
    let mut i = 0;
    while i < spans.len() {
        let root = spans[i];
        assert_eq!(
            root.kind, ROOT,
            "span stream must start each txn with its root"
        );
        let mut j = i + 1;
        let mut children: Vec<(u64, u64)> = Vec::new();
        while j < spans.len() && spans[j].kind != ROOT {
            let child = spans[j];
            assert_eq!(child.txn, root.txn, "child span outside its transaction");
            sums[child.kind as usize] += child.end - child.start;
            let (lo, hi) = (child.start.max(root.start), child.end.min(root.end));
            if hi > lo {
                children.push((lo, hi));
            }
            j += 1;
        }
        children.sort_unstable();
        let (mut covered, mut reach) = (0u64, root.start);
        for (lo, hi) in children {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        sums[0] += root.end - root.start;
        self_sum += (root.end - root.start) - covered;
        txns += 1;
        i = j;
    }
    let per_txn = |sum: u64| {
        if txns == 0 {
            0.0
        } else {
            sum as f64 / txns as f64
        }
    };
    Breakdown {
        txns,
        mean_ns: sums.map(per_txn),
        self_ns: per_txn(self_sum),
    }
}

/// What the traced pass produced.
pub struct Traced {
    /// Every span, roots first within each transaction.
    pub spans: Vec<Span>,
    /// Client-visible latency per operation (first build → final reply),
    /// the same interval the untraced passes time.
    pub latency: Hist,
    /// Operation counts.
    pub tally: Tally,
}

/// Runs `txns` operations through `engine` with one logical client,
/// recording spans.
pub fn traced_pass<E: Engine>(
    engine: &E,
    mix: MixKind,
    subscribers: i64,
    seed: u64,
    txns: u32,
) -> Traced {
    let mut stream = mix.stream(subscribers, seed);
    let mut spans = Vec::with_capacity(txns as usize * KINDS.len());
    let mut latency = Hist::default();
    let mut tally = Tally::default();
    let origin = Instant::now();
    let now = || origin.elapsed().as_nanos() as u64;
    for txn in 0..txns {
        let root_at = spans.len();
        let root_start = now();
        spans.push(Span {
            txn,
            kind: ROOT,
            start: root_start,
            end: root_start,
        });
        let mut span = |kind: u8, start: u64, end: u64| {
            spans.push(Span {
                txn,
                kind,
                start,
                end,
            })
        };

        let t = now();
        let op = stream.next_op();
        span(1, t, now());

        let first_build = now();
        let mut attempts = 0;
        let (reply, replied) = loop {
            let t = now();
            let req = engine.build(&op);
            span(2, t, now());
            let t = now();
            let pending = engine.submit(req);
            span(3, t, now());
            let t = now();
            let reply = E::wait(pending);
            let replied = now();
            span(4, t, replied);
            if matches!(reply, Reply::Aborted(_)) && attempts < E::CLIENT_RETRIES {
                attempts += 1;
                tally.retries += 1;
                continue;
            }
            break (reply, replied);
        };

        let t = now();
        latency.record(replied - first_build);
        tally.book(&op, reply);
        span(5, t, now());
        spans[root_at].end = now();
    }
    Traced {
        spans,
        latency,
        tally,
    }
}

/// Writes `spans` as a Chrome trace-event JSON file.
pub fn write_chrome_trace(path: &Path, process: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{{\"name\":\"{process}\"}}}}"
    );
    for s in spans {
        // Timestamps are microseconds in this format; three decimals
        // keep the nanosecond.
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"txn\":{}}}}}",
            KINDS[s.kind as usize],
            s.start / 1000,
            s.start % 1000,
            (s.end - s.start) / 1000,
            (s.end - s.start) % 1000,
            s.txn,
        );
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(txn: u32, kind: u8, start: u64, end: u64) -> Span {
        Span {
            txn,
            kind,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_root_minus_covered_children() {
        // txn 0: root 0..100, children 10..30 and 40..90 → self 30.
        // txn 1: root 200..300, one child 200..300 → self 0.
        let spans = [
            span(0, 0, 0, 100),
            span(0, 1, 10, 30),
            span(0, 4, 40, 90),
            span(1, 0, 200, 300),
            span(1, 4, 200, 300),
        ];
        let b = breakdown(&spans);
        assert_eq!(b.txns, 2);
        assert_eq!(b.mean_ns[0], 100.0);
        assert_eq!(b.mean_ns[1], 10.0);
        assert_eq!(b.mean_ns[4], 75.0);
        assert_eq!(b.self_ns, 15.0);
        assert!(b.closure_error() < 1e-12);
    }

    #[test]
    fn overlapping_or_overhanging_children_break_closure() {
        // Children 0..60 and 40..100 overlap by 20: they cover the whole
        // root (self 0) but sum to 120.
        let overlapping = [span(0, 0, 0, 100), span(0, 3, 0, 60), span(0, 4, 40, 100)];
        let b = breakdown(&overlapping);
        assert_eq!(b.self_ns, 0.0);
        assert!((b.closure_error() - 0.2).abs() < 1e-12);
        // A child running past its root is clipped for self time only.
        let overhang = [span(0, 0, 0, 100), span(0, 4, 50, 150)];
        let b = breakdown(&overhang);
        assert_eq!(b.self_ns, 50.0);
        assert!((b.closure_error() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        assert_eq!(breakdown(&[]), Breakdown::default());
    }
}
