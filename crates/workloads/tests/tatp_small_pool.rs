//! TATP with more workers than buffer-pool frames.
//!
//! Four workers (and four clients) run the standard mix over a
//! three-frame pool: whenever three workers are mid-page-access the pool
//! is entirely pinned, so a fourth worker's miss has no victim. The pool
//! must make that miss *wait* for a pin to drop — and, were the bounded
//! wait ever to run out, fail with the retryable `BufferPoolFull` — never
//! surface a fatal error or lose an update. Asserted for both engines:
//! every operation ends committed, as an expected TATP miss, or in a
//! retryable abort class; referential integrity and the call-forwarding
//! row count hold at quiescence; and the pool really was churning.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use dora_workloads::dora_core::executor::{DoraEngine, DoraEngineConfig, TxnOutcome};
use dora_workloads::dora_engine_conv::{ConvEngine, ConvEngineConfig, TxnOutcome as ConvOutcome};
use dora_workloads::dora_storage::db::{Database, DatabaseConfig};
use dora_workloads::tatp::{flow_of, request_of, TatpMix, TatpOp, TatpTables, TatpWorkload, MISS};

const WORKERS: usize = 4;
const FRAMES: usize = WORKERS - 1;
const PER_CLIENT: usize = 1_500;
const RETRIES: u32 = 20;

/// Abort classes a client may retry: the engines' concurrency artifacts
/// plus every error that names itself retryable (`BufferPoolFull` does).
fn retryable(reason: &str) -> bool {
    ["retryable", "lock", "deadlock", "uncommitted", "timed out"]
        .iter()
        .any(|class| reason.contains(class))
}

fn small_pool_db(wl: &TatpWorkload) -> (Arc<Database>, TatpTables) {
    let db = Arc::new(Database::new(DatabaseConfig {
        buffer_frames: FRAMES,
        ..DatabaseConfig::default()
    }));
    let tables = wl.load(&db);
    (db, tables)
}

/// Runs `WORKERS` clients of `PER_CLIENT` operations each through
/// `execute` (which retries retryable aborts itself), then audits.
fn run_and_audit(
    db: &Database,
    t: TatpTables,
    wl: &TatpWorkload,
    execute: impl Fn(&TatpOp) -> Result<(), String> + Sync,
) {
    let cf_initial = db.row_count(t.call_forwarding).expect("cf count") as i64;
    let cf_delta = AtomicI64::new(0);
    let committed = AtomicU64::new(0);
    let before = db.buffer_stats();
    std::thread::scope(|s| {
        for client in 0..WORKERS {
            let (execute, cf_delta, committed) = (&execute, &cf_delta, &committed);
            s.spawn(move || {
                let mut mix = TatpMix::new(wl.subscribers, 9_000 + client as u64);
                for _ in 0..PER_CLIENT {
                    let op = mix.next_op();
                    match execute(&op) {
                        Ok(()) => {
                            committed.fetch_add(1, Ordering::Relaxed);
                            cf_delta.fetch_add(op.cf_delta(), Ordering::Relaxed);
                        }
                        Err(reason) => assert!(
                            reason.contains(MISS),
                            "non-retryable failure on a {FRAMES}-frame pool: {op:?} -> {reason}"
                        ),
                    }
                }
            });
        }
    });
    let after = db.buffer_stats();
    assert!(committed.load(Ordering::Relaxed) > 0);
    assert!(
        after.evictions - before.evictions > 100,
        "a {FRAMES}-frame pool under {WORKERS} workers must churn: {before:?} -> {after:?}"
    );
    TatpWorkload::check_integrity(db, t).expect("TATP integrity at quiescence");
    assert_eq!(
        db.row_count(t.call_forwarding).expect("cf count") as i64,
        cf_initial + cf_delta.load(Ordering::Relaxed),
        "call-forwarding rows conserved"
    );
}

#[test]
fn dora_runs_tatp_with_more_workers_than_frames() {
    let wl = TatpWorkload {
        subscribers: 64,
        seed: 41,
    };
    let (db, t) = small_pool_db(&wl);
    let engine = DoraEngine::new(
        db.clone(),
        wl.routing(t, WORKERS),
        DoraEngineConfig {
            workers: WORKERS,
            ..Default::default()
        },
    );
    run_and_audit(&db, t, &wl, |op| {
        // DORA leaves retrying to the client: resubmit the same flow.
        let mut attempts = 0;
        loop {
            match engine.execute(flow_of(t, op, None)) {
                TxnOutcome::Committed => return Ok(()),
                TxnOutcome::Aborted { reason } if retryable(&reason) && attempts < RETRIES => {
                    attempts += 1;
                }
                TxnOutcome::Aborted { reason } => return Err(reason),
            }
        }
    });
    engine.shutdown();
}

#[test]
fn conv_runs_tatp_with_more_workers_than_frames() {
    let wl = TatpWorkload {
        subscribers: 64,
        seed: 43,
    };
    let (db, t) = small_pool_db(&wl);
    let engine = ConvEngine::new(
        db.clone(),
        ConvEngineConfig {
            workers: WORKERS,
            max_retries: RETRIES,
        },
    );
    // The conventional engine retries `is_retryable` errors itself.
    run_and_audit(&db, t, &wl, |op| {
        match engine.execute(request_of(t, op, None)) {
            ConvOutcome::Committed { .. } => Ok(()),
            ConvOutcome::Aborted { reason } => Err(reason),
        }
    });
    engine.shutdown();
}
