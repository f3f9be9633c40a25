//! The one surface the benchmark drives both engines through: build a
//! request from a [`TatpOp`], `submit` it, await the reply, read the
//! public counters. Nothing here reaches past the engines' public APIs.

use std::sync::Arc;

use dora_core::executor::{DoraEngine, DoraEngineConfig, TxnOutcome as DoraOutcome};
use dora_core::{oneshot, FlowGraph};
use dora_engine_conv::{ConvEngine, ConvEngineConfig, TxnOutcome as ConvOutcome, TxnRequest};
use dora_storage::db::Database;
use dora_workloads::harness::{run_flow_serial, run_request_serial, SerialOutcome};
use dora_workloads::tatp::{flow_of, request_of, TatpOp, TatpTables, TatpWorkload, MISS};

/// Worker threads per engine: one per core of the 2-core box.
pub const WORKERS: usize = 2;

/// Lock-timeout aborts the conventional engine retries internally; the
/// DORA client retries as often, so both sides give up on the same
/// attempt.
pub const RETRIES: u32 = 3;

/// A transaction's outcome as the client triages it.
#[derive(Debug)]
pub enum Reply {
    /// Committed.
    Committed,
    /// One of TATP's expected failures (absent row, duplicate insert):
    /// a successful operation by the spec.
    Miss,
    /// Any other abort, with the engine's reason.
    Aborted(String),
}

fn aborted(reason: String) -> Reply {
    if reason.contains(MISS) {
        Reply::Miss
    } else {
        Reply::Aborted(reason)
    }
}

fn serial_reply(out: SerialOutcome) -> Reply {
    if out.committed {
        Reply::Committed
    } else {
        aborted(out.reason.unwrap_or_default())
    }
}

/// Engine counters the window diffs are taken over.
#[derive(Debug, Clone, Default)]
pub struct EngineCounters {
    /// Retries the engine made itself (conventional only).
    pub retries: u64,
    /// Busy nanoseconds summed over workers.
    pub busy_ns: u64,
    /// DORA-only counters; `None` for the conventional engine.
    pub dora: Option<DoraCounters>,
}

/// The DORA-specific part of [`EngineCounters`].
#[derive(Debug, Clone, Default)]
pub struct DoraCounters {
    /// Actions executed.
    pub actions: u64,
    /// Actions parked on a local-lock conflict.
    pub deferrals: u64,
    /// Parked actions re-tried after a release (wait list).
    pub wakeups: u64,
    /// Cross-partition messages produced.
    pub outbox_msgs: u64,
    /// Mailbox pushes those messages cost after coalescing.
    pub outbox_pushes: u64,
    /// Local locks granted.
    pub lock_acquired: u64,
    /// Local lock requests that conflicted.
    pub lock_conflicts: u64,
    /// Actions executed per partition.
    pub executed: Vec<u64>,
}

/// What the load generators and passes need from an engine.
pub trait Engine: Send + Sync + 'static {
    /// Metric-name prefix (`dora` / `conv`).
    const NAME: &'static str;
    /// The data-oriented engine: must never enter the centralized lock
    /// manager, and its child probes the DORA layers (the other child
    /// probes the shared workload and storage layers).
    const DORA: bool;
    /// Aborts other than spec misses the *client* resubmits.
    const CLIENT_RETRIES: u32;
    /// A built, not yet submitted transaction.
    type Req;
    /// An in-flight transaction's reply handle.
    type Pending;

    /// Starts the engine over a loaded database.
    fn start(db: Arc<Database>, wl: &TatpWorkload, tables: TatpTables) -> Self;
    /// The database underneath.
    fn db(&self) -> &Arc<Database>;
    /// The loaded tables.
    fn tables(&self) -> TatpTables;
    /// Compiles `op` into the engine's request form.
    fn build(&self, op: &TatpOp) -> Self::Req;
    /// Hands the request to the engine.
    fn submit(&self, req: Self::Req) -> Self::Pending;
    /// Blocks until the transaction finishes.
    fn wait(pending: Self::Pending) -> Reply;
    /// Requests queued inside the engine right now.
    fn queue_len(&self) -> usize;
    /// Public engine counters.
    fn counters(&self) -> EngineCounters;
    /// Runs `op` on the calling thread with no engine underneath.
    fn run_serial(&self, op: &TatpOp) -> Reply;
}

/// The data-oriented engine.
pub struct Dora {
    engine: DoraEngine,
    tables: TatpTables,
}

impl Engine for Dora {
    const NAME: &'static str = "dora";
    const DORA: bool = true;
    const CLIENT_RETRIES: u32 = RETRIES;
    type Req = FlowGraph;
    type Pending = oneshot::Receiver<DoraOutcome>;

    fn start(db: Arc<Database>, wl: &TatpWorkload, tables: TatpTables) -> Self {
        let engine = DoraEngine::new(
            db,
            wl.routing(tables, WORKERS),
            DoraEngineConfig {
                workers: WORKERS,
                ..Default::default()
            },
        );
        Dora { engine, tables }
    }

    fn db(&self) -> &Arc<Database> {
        self.engine.db()
    }

    fn tables(&self) -> TatpTables {
        self.tables
    }

    fn build(&self, op: &TatpOp) -> FlowGraph {
        flow_of(self.tables, op, None)
    }

    fn submit(&self, req: FlowGraph) -> Self::Pending {
        self.engine.submit(req)
    }

    fn wait(pending: Self::Pending) -> Reply {
        match pending.recv() {
            Ok(DoraOutcome::Committed) => Reply::Committed,
            Ok(DoraOutcome::Aborted { reason }) => aborted(reason),
            Err(e) => Reply::Aborted(e.to_string()),
        }
    }

    fn queue_len(&self) -> usize {
        self.engine.queue_len()
    }

    fn counters(&self) -> EngineCounters {
        let s = self.engine.stats();
        let sum = |f: fn(&dora_core::executor::PartitionStatsSnapshot) -> u64| -> u64 {
            s.workers.iter().map(f).sum()
        };
        EngineCounters {
            retries: 0,
            busy_ns: sum(|w| w.busy_ns),
            dora: Some(DoraCounters {
                actions: s.actions,
                deferrals: s.deferrals,
                wakeups: sum(|w| w.wakeups),
                outbox_msgs: sum(|w| w.outbox_msgs),
                outbox_pushes: sum(|w| w.outbox_pushes),
                lock_acquired: sum(|w| w.locks.acquired),
                lock_conflicts: sum(|w| w.locks.conflicts),
                executed: s.workers.iter().map(|w| w.executed).collect(),
            }),
        }
    }

    fn run_serial(&self, op: &TatpOp) -> Reply {
        let out = run_flow_serial(self.db(), self.build(op));
        serial_reply(out)
    }
}

/// The conventional thread-to-transaction engine.
pub struct Conv {
    engine: ConvEngine,
    tables: TatpTables,
}

impl Engine for Conv {
    const NAME: &'static str = "conv";
    const DORA: bool = false;
    const CLIENT_RETRIES: u32 = 0;
    type Req = TxnRequest;
    type Pending = crossbeam_channel::Receiver<ConvOutcome>;

    fn start(db: Arc<Database>, _wl: &TatpWorkload, tables: TatpTables) -> Self {
        let engine = ConvEngine::new(
            db,
            ConvEngineConfig {
                workers: WORKERS,
                max_retries: RETRIES,
            },
        );
        Conv { engine, tables }
    }

    fn db(&self) -> &Arc<Database> {
        self.engine.db()
    }

    fn tables(&self) -> TatpTables {
        self.tables
    }

    fn build(&self, op: &TatpOp) -> TxnRequest {
        request_of(self.tables, op, None)
    }

    fn submit(&self, req: TxnRequest) -> Self::Pending {
        self.engine.submit(req)
    }

    fn wait(pending: Self::Pending) -> Reply {
        match pending.recv() {
            Ok(ConvOutcome::Committed { .. }) => Reply::Committed,
            Ok(ConvOutcome::Aborted { reason }) => aborted(reason),
            Err(e) => Reply::Aborted(e.to_string()),
        }
    }

    fn queue_len(&self) -> usize {
        self.engine.queue_len()
    }

    fn counters(&self) -> EngineCounters {
        let s = self.engine.stats();
        EngineCounters {
            retries: s.retries,
            busy_ns: s.workers.iter().map(|w| w.busy_ns).sum(),
            dora: None,
        }
    }

    fn run_serial(&self, op: &TatpOp) -> Reply {
        let out = run_request_serial(self.db(), &self.build(op));
        serial_reply(out)
    }
}
