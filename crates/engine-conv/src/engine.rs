//! The conventional thread-to-transaction execution engine.
//!
//! This is the baseline the paper argues against: each incoming transaction
//! is assigned to a worker thread, and that thread touches whatever data the
//! transaction dictates, acquiring logical locks through the *centralized*
//! lock manager for every access. Under load this concentrates contention
//! inside the lock manager's critical sections and caps scalability.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use dora_storage::db::{Database, LockingPolicy};
use dora_storage::error::{StorageError, StorageResult};
use dora_storage::trace::{AccessTrace, WorkerCtx};
use dora_storage::types::TxnId;

use crate::stats::{EngineStats, EngineStatsSnapshot, WorkerStats};

/// The locking policy the conventional engine passes to every storage
/// operation.
pub const CONV_POLICY: LockingPolicy = LockingPolicy::Centralized;

/// Transaction logic: re-runnable (for deadlock retries) body executed by a
/// worker thread within a storage transaction.
pub type TxnBody = Box<dyn Fn(&Database, TxnId, &WorkerCtx) -> StorageResult<()> + Send>;

/// A transaction request submitted by a client.
pub struct TxnRequest {
    /// Human-readable transaction name (e.g. `"GetSubscriberData"`).
    pub name: &'static str,
    /// The transaction body.
    pub body: TxnBody,
}

impl TxnRequest {
    /// Creates a request from a name and body closure.
    pub fn new(
        name: &'static str,
        body: impl Fn(&Database, TxnId, &WorkerCtx) -> StorageResult<()> + Send + 'static,
    ) -> Self {
        TxnRequest {
            name,
            body: Box::new(body),
        }
    }
}

/// Final status of a submitted transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOutcome {
    /// The transaction committed (possibly after `retries` deadlock/timeout
    /// retries).
    Committed {
        /// Number of retries that were needed.
        retries: u32,
    },
    /// The transaction aborted and was not retried further.
    Aborted {
        /// Why the transaction aborted.
        reason: String,
    },
}

impl TxnOutcome {
    /// True when the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnOutcome::Committed { .. })
    }
}

/// Configuration of the conventional engine.
#[derive(Debug, Clone)]
pub struct ConvEngineConfig {
    /// Number of worker threads (the paper's "hardware contexts given to the
    /// system").
    pub workers: usize,
    /// Maximum automatic retries after deadlock/lock-timeout aborts.
    pub max_retries: u32,
}

impl Default for ConvEngineConfig {
    fn default() -> Self {
        ConvEngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_retries: 10,
        }
    }
}

struct Job {
    request: TxnRequest,
    reply: Sender<TxnOutcome>,
}

/// The conventional (thread-to-transaction) execution engine.
pub struct ConvEngine {
    db: Arc<Database>,
    sender: Option<Sender<Job>>,
    receiver: Receiver<Job>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<EngineStats>,
    worker_stats: Arc<Vec<WorkerStats>>,
    trace: Arc<AccessTrace>,
    config: ConvEngineConfig,
}

impl ConvEngine {
    /// Creates the engine and spawns its worker pool.
    pub fn new(db: Arc<Database>, config: ConvEngineConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        let (sender, receiver) = unbounded::<Job>();
        let stats = Arc::new(EngineStats::default());
        let worker_stats = Arc::new(
            (0..config.workers)
                .map(|_| WorkerStats::default())
                .collect::<Vec<_>>(),
        );
        let trace = Arc::new(AccessTrace::new());
        let mut engine = ConvEngine {
            db,
            sender: Some(sender),
            receiver,
            workers: Vec::new(),
            stats,
            worker_stats,
            trace,
            config,
        };
        engine.spawn_workers();
        engine
    }

    fn spawn_workers(&mut self) {
        for worker_id in 0..self.config.workers {
            let rx = self.receiver.clone();
            let db = self.db.clone();
            let stats = self.stats.clone();
            let worker_stats = self.worker_stats.clone();
            let trace = self.trace.clone();
            let max_retries = self.config.max_retries;
            let handle = std::thread::Builder::new()
                .name(format!("conv-worker-{worker_id}"))
                .spawn(move || {
                    let ctx = WorkerCtx::new(worker_id, trace);
                    while let Ok(job) = rx.recv() {
                        let start = Instant::now();
                        let outcome = Self::run_one(&db, &job.request, &ctx, max_retries, &stats);
                        let elapsed = start.elapsed().as_nanos() as u64;
                        let ws = &worker_stats[worker_id];
                        ws.executed.fetch_add(1, Ordering::Relaxed);
                        ws.busy_ns.fetch_add(elapsed, Ordering::Relaxed);
                        // The submitting client may have gone away; ignore.
                        let _ = job.reply.send(outcome);
                    }
                })
                .expect("spawn conventional worker");
            self.workers.push(handle);
        }
    }

    fn run_one(
        db: &Database,
        request: &TxnRequest,
        ctx: &WorkerCtx,
        max_retries: u32,
        stats: &EngineStats,
    ) -> TxnOutcome {
        let mut retries = 0u32;
        loop {
            let txn = db.begin();
            match (request.body)(db, txn, ctx) {
                Ok(()) => match db.commit(txn) {
                    Ok(()) => {
                        stats.committed.fetch_add(1, Ordering::Relaxed);
                        return TxnOutcome::Committed { retries };
                    }
                    Err(e) => {
                        if matches!(e, StorageError::LogIo(_) | StorageError::LogPoisoned(_)) {
                            stats.log_io_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        let _ = db.abort(txn);
                        stats.aborted.fetch_add(1, Ordering::Relaxed);
                        return TxnOutcome::Aborted {
                            reason: format!("commit failed: {e}"),
                        };
                    }
                },
                Err(e) if e.is_retryable() && retries < max_retries => {
                    let _ = db.abort(txn);
                    retries += 1;
                    stats.retries.fetch_add(1, Ordering::Relaxed);
                    // Brief backoff keeps deadlock-prone mixes livelock-free.
                    std::thread::yield_now();
                }
                Err(e) => {
                    let _ = db.abort(txn);
                    stats.aborted.fetch_add(1, Ordering::Relaxed);
                    return TxnOutcome::Aborted {
                        reason: e.to_string(),
                    };
                }
            }
        }
    }

    /// The underlying database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The engine's access trace (disabled unless enabled by the caller).
    pub fn trace(&self) -> &Arc<AccessTrace> {
        &self.trace
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.config.workers
    }

    /// Number of requests waiting in the shared input queue.
    pub fn queue_len(&self) -> usize {
        self.receiver.len()
    }

    /// Submits a transaction; the returned channel yields its outcome.
    pub fn submit(&self, request: TxnRequest) -> Receiver<TxnOutcome> {
        let (reply_tx, reply_rx) = bounded(1);
        let job = Job {
            request,
            reply: reply_tx,
        };
        self.sender
            .as_ref()
            .expect("engine not shut down")
            .send(job)
            .expect("worker pool alive");
        reply_rx
    }

    /// Submits a transaction and blocks until it finishes.
    pub fn execute(&self, request: TxnRequest) -> TxnOutcome {
        self.submit(request)
            .recv()
            .expect("worker pool delivers an outcome")
    }

    /// Engine counters plus per-worker breakdown.
    pub fn stats(&self) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            committed: self.stats.committed.load(Ordering::Relaxed),
            aborted: self.stats.aborted.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            log_io_errors: self.stats.log_io_errors.load(Ordering::Relaxed),
            workers: self.worker_stats.iter().map(|w| w.snapshot()).collect(),
        }
    }

    /// Stops accepting work and joins all workers (in-flight work finishes).
    pub fn shutdown(mut self) {
        self.sender.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ConvEngine {
    fn drop(&mut self) {
        self.sender.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dora_storage::error::StorageError;
    use dora_storage::schema::{ColumnDef, TableSchema};
    use dora_storage::types::{DataType, Value};

    fn db_with_counter_table() -> (Arc<Database>, u32) {
        let db = Arc::new(Database::default());
        let t = db
            .create_table(TableSchema::new(
                "counters",
                vec![
                    ColumnDef::new("id", DataType::BigInt),
                    ColumnDef::new("value", DataType::BigInt),
                ],
                vec![0],
            ))
            .unwrap();
        let txn = db.begin();
        for i in 0..16 {
            db.insert(
                txn,
                t,
                vec![Value::BigInt(i), Value::BigInt(0)],
                LockingPolicy::Centralized,
            )
            .unwrap();
        }
        db.commit(txn).unwrap();
        (db, t)
    }

    fn increment_request(t: u32, id: i64) -> TxnRequest {
        TxnRequest::new("Increment", move |db, txn, ctx| {
            ctx.record(t, id, true);
            let row = db
                .get(txn, t, &[Value::BigInt(id)], CONV_POLICY)?
                .ok_or(StorageError::NotFound)?;
            let v = row[1].as_i64().unwrap();
            db.update(
                txn,
                t,
                &[Value::BigInt(id)],
                &[(1, Value::BigInt(v + 1))],
                CONV_POLICY,
            )?;
            Ok(())
        })
    }

    #[test]
    fn executes_and_commits_transactions() {
        let (db, t) = db_with_counter_table();
        let engine = ConvEngine::new(
            db.clone(),
            ConvEngineConfig {
                workers: 2,
                max_retries: 5,
            },
        );
        for i in 0..10 {
            let outcome = engine.execute(increment_request(t, i % 4));
            assert!(outcome.is_committed(), "{outcome:?}");
        }
        let stats = engine.stats();
        assert_eq!(stats.committed, 10);
        assert_eq!(stats.aborted, 0);
        assert_eq!(stats.workers.len(), 2);
        assert_eq!(stats.workers.iter().map(|w| w.executed).sum::<u64>(), 10);
        engine.shutdown();
    }

    #[test]
    fn concurrent_increments_are_serializable() {
        let (db, t) = db_with_counter_table();
        let engine = Arc::new(ConvEngine::new(
            db.clone(),
            ConvEngineConfig {
                workers: 4,
                max_retries: 50,
            },
        ));
        // 4 clients, each incrementing the same hot row 25 times.
        let mut clients = Vec::new();
        for _ in 0..4 {
            let engine = engine.clone();
            clients.push(std::thread::spawn(move || {
                let mut committed = 0;
                for _ in 0..25 {
                    if engine.execute(increment_request(t, 0)).is_committed() {
                        committed += 1;
                    }
                }
                committed
            }));
        }
        let committed: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        let txn = db.begin();
        let row = db
            .get(txn, t, &[Value::BigInt(0)], LockingPolicy::Bypass)
            .unwrap()
            .unwrap();
        db.commit(txn).unwrap();
        assert_eq!(row[1].as_i64().unwrap(), committed as i64);
        assert_eq!(committed, 100, "all increments should eventually commit");
    }

    #[test]
    fn read_only_transactions_commit_without_touching_the_log() {
        let (db, t) = db_with_counter_table();
        let engine = ConvEngine::new(
            db.clone(),
            ConvEngineConfig {
                workers: 2,
                max_retries: 5,
            },
        );
        let before = db.log_stats();
        for i in 0..8 {
            let outcome = engine.execute(TxnRequest::new("ReadOnly", move |db, txn, _| {
                db.get(txn, t, &[Value::BigInt(i)], CONV_POLICY)?
                    .ok_or(StorageError::NotFound)?;
                Ok(())
            }));
            assert!(outcome.is_committed(), "{outcome:?}");
        }
        let after = db.log_stats();
        // Read-only fast path on the conventional engine too: no records
        // appended, no group commit forced.
        assert_eq!(after.appended, before.appended);
        assert_eq!(after.forces, before.forces);
        // A writing transaction still logs (lazy Begin + Update + Commit)
        // and forces once.
        assert!(engine.execute(increment_request(t, 0)).is_committed());
        let wrote = db.log_stats();
        assert_eq!(wrote.appended, before.appended + 3);
        assert_eq!(wrote.forces, before.forces + 1);
    }

    #[test]
    fn non_retryable_failure_aborts() {
        let (db, _t) = db_with_counter_table();
        let engine = ConvEngine::new(
            db,
            ConvEngineConfig {
                workers: 1,
                max_retries: 3,
            },
        );
        let outcome = engine.execute(TxnRequest::new("AlwaysFails", |_db, _txn, _ctx| {
            Err(StorageError::Aborted("business rule".into()))
        }));
        assert!(matches!(outcome, TxnOutcome::Aborted { .. }));
        assert_eq!(engine.stats().aborted, 1);
        assert_eq!(engine.stats().retries, 0);
    }

    #[test]
    fn access_trace_attributes_to_workers() {
        let (db, t) = db_with_counter_table();
        let engine = ConvEngine::new(
            db,
            ConvEngineConfig {
                workers: 3,
                max_retries: 3,
            },
        );
        engine.trace().set_enabled(true);
        let pending: Vec<_> = (0..30)
            .map(|i| engine.submit(increment_request(t, i % 16)))
            .collect();
        for p in pending {
            assert!(p.recv().unwrap().is_committed());
        }
        let events = engine.trace().snapshot();
        // Two increments of one id can deadlock on the S→X upgrade; the
        // loser's body runs (and records) again on retry.
        assert_eq!(events.len() as u64, 30 + engine.stats().retries);
        assert!(events.iter().all(|e| e.worker < 3));
    }

    #[test]
    fn validated_reads_retry_until_the_writer_commits_never_serving_dirty_data() {
        // The conventional engine routes lock-free reads through the same
        // VersionedRead API as DORA's secondary actions: an uncommitted
        // record makes the body fail with the retryable ReadUncommitted
        // error, and the engine's retry loop plays the role of DORA's
        // park/re-run. The dirty value must never surface.
        let (db, t) = db_with_counter_table();
        let writer = db.begin();
        db.update(
            writer,
            t,
            &[Value::BigInt(0)],
            &[(1, Value::BigInt(41))],
            LockingPolicy::Centralized,
        )
        .unwrap();

        let engine = ConvEngine::new(
            db.clone(),
            ConvEngineConfig {
                workers: 1,
                max_retries: u32::MAX,
            },
        );
        let pending = engine.submit(TxnRequest::new("Audit", move |db, txn, _| {
            let row = db
                .read_validated(txn, t, &[Value::BigInt(0)], LockingPolicy::Bypass)?
                .ok_or(StorageError::NotFound)?;
            // Reachable only after the writer committed: the validated
            // read rejects the in-flight image instead of returning it.
            assert_eq!(row[1].as_i64(), Some(41), "dirty or stale value surfaced");
            Ok(())
        }));
        // Let the audit bounce off the uncommitted write at least once.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while engine.stats().retries == 0 {
            assert!(std::time::Instant::now() < deadline, "audit never retried");
            std::thread::yield_now();
        }
        db.commit(writer).unwrap();
        assert!(pending.recv().unwrap().is_committed());
        assert!(engine.stats().retries > 0);
        assert!(db.counters().validated_retries > 0);
    }

    #[test]
    fn lock_manager_critical_sections_grow_with_work() {
        let (db, t) = db_with_counter_table();
        let before = db.lock_stats().critical_sections;
        let engine = ConvEngine::new(
            db.clone(),
            ConvEngineConfig {
                workers: 2,
                max_retries: 5,
            },
        );
        for i in 0..20 {
            engine.execute(increment_request(t, i % 16));
        }
        let after = db.lock_stats().critical_sections;
        assert!(
            after > before + 20,
            "conventional execution must enter lock-manager critical sections"
        );
    }

    #[test]
    fn shutdown_finishes_in_flight_work() {
        let (db, t) = db_with_counter_table();
        let engine = ConvEngine::new(
            db.clone(),
            ConvEngineConfig {
                workers: 2,
                max_retries: 5,
            },
        );
        let replies: Vec<_> = (0..20)
            .map(|i| engine.submit(increment_request(t, i % 16)))
            .collect();
        engine.shutdown();
        for r in replies {
            assert!(r.recv().unwrap().is_committed());
        }
        assert_eq!(db.counters().commits, 20 + 1); // +1 for the loader txn
    }
}
