//! The DORA partition executor: one worker thread per logical partition.
//!
//! This is the heart of the paper. The [`DoraEngine`] spawns a fixed pool
//! of worker threads ("micro-engines"), each owning
//!
//! * a private **action queue** — its only input, and
//! * a private [`LocalLockTable`] — touched exclusively by that thread, so
//!   it needs no latches at all.
//!
//! Submitted transactions arrive as
//! [`FlowGraph`]s. Each phase's actions are
//! routed to the partitions owning their data
//! ([`dispatcher::route_phase`](crate::dispatcher::route_phase)) and
//! joined at a rendezvous point ([`Rvp`]); the last action to report at an
//! RVP runs the rendezvous logic on its own worker thread — enqueueing the
//! next phase or committing/aborting the transaction. Storage operations
//! execute under [`DORA_POLICY`] (`LockingPolicy::Bypass`): the
//! centralized lock manager is skipped entirely because every access to a
//! partition's keys is funneled through the one thread that owns them.
//!
//! The worker's hot path is organized around three structures:
//!
//! * **Lock-keyed wait list** — an action whose local locks are
//!   unavailable is parked in the worker's wait list (`wait_list`
//!   module), indexed by the keys it waits on.
//!   A transaction's finish releases its keys and wakes **only** the
//!   actions parked on those keys; nothing else is re-examined (the old
//!   executor rescanned the whole deferral list after every message).
//!   Waits are event-driven: the worker sleeps until a message arrives or
//!   the earliest parked action hits
//!   [`DoraEngineConfig::lock_timeout`] — a deferral that expires aborts
//!   its transaction, which is also how cross-partition deadlocks (two
//!   multi-partition transactions acquiring in opposite orders) resolve.
//! * **Lock-free mailbox** (the [`mailbox`](crate::mailbox) module) — each
//!   partition's only input, with lane selection at enqueue time. The
//!   **fresh lane** is a bounded MPSC ring whose capacity *is* the
//!   admission bound: [`DoraEngine::submit`] reserves a slot per phase-1
//!   action (one CAS), blocks — back-pressure — up to
//!   [`DoraEngineConfig::submit_timeout`] while a partition is full, and
//!   then rejects with a visible abort; nothing is ever silently
//!   dropped. The **priority lane** is an unbounded lock-free list for
//!   worker-to-worker traffic (later-phase actions, finishes, probes):
//!   later phases can unblock a rendezvous other partitions already
//!   executed for, so they cut ahead of fresh work — and a worker can
//!   never block sending to another worker, which rules out send-side
//!   deadlock by construction. A later-phase action targeting the very
//!   partition whose worker runs the RVP logic is executed inline,
//!   skipping the queue round-trip entirely. Workers **batch-drain**:
//!   one atomic swap empties the priority lane, one lazily published
//!   counter covers a whole fresh segment, and a worker sleeps only on
//!   verified-empty after a bounded run of yielding polls
//!   ([`crate::wait`]), so the uncontended path touches no mutex and no
//!   SeqCst handshake.
//! * **Coalesced outboxes** — the cross-partition messages one drain
//!   batch produces (finishes, next-phase actions, probes) are buffered
//!   per target partition and flushed as **one** mailbox push each
//!   ([`WorkerMsg::Batch`]), so a multi-send iteration pays one
//!   reservation per target instead of one per message.
//!
//! Routing changes while traffic is live are **quiesce-free**:
//! [`DoraEngine::migrate_range`] moves one key range between partitions
//! with a three-step handoff instead of draining the engine. The
//! destination first installs a **range barrier** (fresh arrivals for the
//! moving range park behind it), then the routing table is carved so new
//! work dual-routes to the destination, and finally the source extracts
//! the range's local lock entries and parked actions and ships them in a
//! [`WorkerMsg::RangeSealed`] token that releases the barrier. Traffic on
//! unaffected ranges never stops. A monotone **migration epoch** gates a
//! self-correcting ownership check: once any migration has happened, a
//! worker that pops an action (or finish) for keys the current routing
//! assigns elsewhere forwards it to the owner instead of running it, which
//! absorbs messages routed before the carve but delivered after the seal.
//!
//! Non-aligned ("secondary") actions run lock-free but **consistent**:
//! their bodies read through the storage layer's validated (versioned)
//! API, which only ever serves a committed snapshot. A read that hits an
//! in-flight writer names the conflicting record, and the executor
//! re-routes the action to that key's owning partition where it parks in
//! the ordinary wait list under a shared read intent — the writer's
//! finish wakes it and the (re-runnable) body executes again
//! (`secondary_retries` / `secondary_parked` in [`DoraStatsSnapshot`]
//! count the protocol).
//!
//! Workers are **supervised**: each worker thread runs inside a top-level
//! `catch_unwind`, and a dedicated supervisor thread (plain `std::sync`
//! primitives only) owns the worker join handles. A worker that panics
//! outside the user-body guard — or is killed deliberately via
//! [`DoraEngine::kill_worker`] or an installed chaos plan — hands its
//! entire private state to the supervisor, which aborts every in-flight
//! transaction that touched the partition with a **retryable**
//! [`StorageError::WorkerUnavailable`] error, salvages the dead lock
//! table into a fresh one (released again by the aborts' own finish
//! broadcasts), re-admits salvageable queued fresh work, and respawns the
//! worker — unaffected partitions keep committing throughout, and no
//! acknowledged commit is ever lost (see `docs/architecture.md`,
//! "Supervision & chaos").

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};

use dora_storage::db::{Database, LockingPolicy};
use dora_storage::error::StorageError;
use dora_storage::trace::{AccessTrace, WorkerCtx};
use dora_storage::types::TableId;

use dora_storage::types::TxnId;

use crate::action::{ActionSpec, FlowGraph};
#[cfg(any(test, feature = "chaos"))]
use crate::chaos::ChaosState;
use crate::dispatcher::{
    route_phase, ActionEnvelope, MigrationTicket, PhaseEnd, Rvp, SealStats, TxnCtx, WorkerMsg,
};
use crate::local_lock::{LocalLockStats, LocalLockTable, LockClass};
use crate::mailbox::{Mailbox, PushError};
use crate::oneshot;
use crate::routing::RoutingTable;
use crate::wait_list::{WaitList, FRESH_SEQ};

/// The locking policy DORA passes to every storage operation: bypass the
/// centralized lock manager, isolation is enforced by the partition-local
/// lock tables.
pub const DORA_POLICY: LockingPolicy = LockingPolicy::Bypass;

/// How deep inline own-partition dispatch may recurse before next-phase
/// actions detour through the priority lane (stack-depth bound for
/// same-partition multi-phase chains).
const INLINE_DISPATCH_DEPTH: u32 = 16;

/// Final status of a submitted transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Every phase ran and the transaction committed.
    Committed,
    /// The transaction aborted (action failure, local-lock timeout,
    /// admission timeout under back-pressure, or engine shutdown).
    Aborted {
        /// Why the transaction aborted.
        reason: String,
    },
}

impl TxnOutcome {
    /// True when the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnOutcome::Committed)
    }
}

/// Configuration of the DORA engine.
#[derive(Debug, Clone)]
pub struct DoraEngineConfig {
    /// Number of partition worker threads (micro-engines).
    pub workers: usize,
    /// How long a parked action may wait for local locks before its
    /// transaction aborts. Also the cross-partition deadlock bound.
    pub lock_timeout: Duration,
    /// Per-partition bound on admitted-but-unprocessed **fresh** (phase-1)
    /// actions — the capacity of the partition mailbox's fresh ring
    /// (rounded up to a power of two). When a partition is full, `submit`
    /// blocks — back-pressure — instead of letting queues grow without
    /// bound. Later-phase actions are not counted: they belong to
    /// transactions already inside the engine.
    pub queue_capacity: usize,
    /// How long `submit` may block waiting for queue space before the
    /// transaction is rejected with a visible abort (never a silent drop).
    pub submit_timeout: Duration,
    /// Extra slack [`DoraEngine::shutdown`] grants in-flight transactions
    /// on top of `lock_timeout + submit_timeout` before it gives up
    /// waiting for them and closes the mailboxes anyway. Transactions
    /// still active when the backstop expires are counted in
    /// [`DoraStatsSnapshot::shutdown_stranded`] (and a warning is printed)
    /// instead of disappearing silently; their replies still arrive as
    /// shutdown aborts when the workers drain.
    pub shutdown_grace: Duration,
}

impl Default for DoraEngineConfig {
    fn default() -> Self {
        DoraEngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            lock_timeout: Duration::from_millis(500),
            queue_capacity: 1024,
            submit_timeout: Duration::from_secs(2),
            shutdown_grace: Duration::from_secs(30),
        }
    }
}

/// Engine-wide counters (written by workers, read by `stats`).
#[derive(Debug, Default)]
struct EngineCounters {
    committed: AtomicU64,
    aborted: AtomicU64,
    actions: AtomicU64,
    deferrals: AtomicU64,
    secondary: AtomicU64,
    secondary_retries: AtomicU64,
    secondary_parked: AtomicU64,
    log_io_errors: AtomicU64,
    migrations: AtomicU64,
    forwarded: AtomicU64,
    worker_restarts: AtomicU64,
    orphan_aborts: AtomicU64,
    chaos_kills: AtomicU64,
    restart_pause_us: AtomicU64,
    shutdown_stranded: AtomicU64,
}

/// Per-partition counters, written only by the owning worker (plain
/// stores; the worker's local lock table remains latch-free).
#[derive(Debug, Default)]
struct PartitionCounters {
    executed: AtomicU64,
    busy_ns: AtomicU64,
    lock_acquired: AtomicU64,
    lock_conflicts: AtomicU64,
    lock_released: AtomicU64,
    deferred_depth: AtomicU64,
    wakeups: AtomicU64,
    rescans_avoided: AtomicU64,
    outbox_msgs: AtomicU64,
    outbox_pushes: AtomicU64,
}

/// Snapshot of one partition worker's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionStatsSnapshot {
    /// Actions executed by this worker.
    pub executed: u64,
    /// Nanoseconds spent executing action bodies and RVP logic.
    pub busy_ns: u64,
    /// Messages currently queued in this partition's mailbox (both lanes)
    /// at the instant the snapshot was taken. An instantaneous gauge, not
    /// a counter: the load balancer reads it directly instead of
    /// window-diffing it.
    pub queue_depth: u64,
    /// This worker's local lock table counters.
    pub locks: LocalLockStats,
    /// Actions currently parked waiting for local locks.
    pub deferred: u64,
    /// Parked actions re-tried because a key they wait on was released.
    pub wakeups: u64,
    /// Parked actions **not** re-examined at lock-release events because
    /// they wait on unrelated keys — each one is a lock probe the old
    /// full-rescan executor would have paid. `wakeups + rescans_avoided`
    /// per release event equals the rescan cost the wait list replaced.
    pub rescans_avoided: u64,
    /// Cross-partition messages this worker produced (finishes,
    /// next-phase actions, probes).
    pub outbox_msgs: u64,
    /// Mailbox pushes those messages actually cost after same-target
    /// coalescing; `outbox_msgs - outbox_pushes` is the number of
    /// reservations (and wakeup probes) the outbox saved.
    pub outbox_pushes: u64,
}

/// Snapshot of the engine's counters plus per-partition breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DoraStatsSnapshot {
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Actions executed across all partitions.
    pub actions: u64,
    /// Times an action was parked because its local locks were taken.
    pub deferrals: u64,
    /// Non-aligned (secondary) actions executed.
    pub secondary: u64,
    /// Times a secondary action's validated read observed an in-flight
    /// writer and was re-routed toward the conflicting key's owner (each
    /// re-route re-runs the read once the key is reachable).
    pub secondary_retries: u64,
    /// Times a re-routed secondary action actually parked on the owning
    /// partition's wait list (the writer was still holding the key on
    /// arrival; the remainder re-ran immediately).
    pub secondary_parked: u64,
    /// Commits failed by a log I/O error (ENOSPC on a segment, failed
    /// fsync): the transaction aborts visibly instead of being
    /// acknowledged without durability.
    pub log_io_errors: u64,
    /// Range migrations completed by [`DoraEngine::migrate_range`].
    pub migrations: u64,
    /// Messages (actions or finishes) a worker forwarded to the current
    /// owner because a migration moved the keys after they were routed.
    pub forwarded: u64,
    /// Partition workers the supervisor respawned after a crash (panic
    /// outside the user-body guard, or an injected kill).
    pub worker_restarts: u64,
    /// Transactions the supervisor aborted because the partition worker
    /// owning part of their state died mid-flight — lock holders, parked
    /// actions, and queued later-phase work of the dead partition. All of
    /// them abort with the retryable `WorkerUnavailable` error instead of
    /// waiting out `lock_timeout` as orphans.
    pub orphan_aborts: u64,
    /// Deliberate worker kills injected via [`DoraEngine::kill_worker`] or
    /// an installed chaos plan.
    pub chaos_kills: u64,
    /// Cumulative microseconds partitions spent dead: from each crash to
    /// the moment its replacement worker's state was rebuilt. Divided by
    /// `worker_restarts` this is the engine's mean time to recovery.
    pub restart_pause_us: u64,
    /// Transactions still active when the shutdown backstop deadline
    /// expired (see [`DoraEngineConfig::shutdown_grace`]). Non-zero means
    /// shutdown stopped waiting and closed the mailboxes under them.
    pub shutdown_stranded: u64,
    /// Per-partition counters.
    pub workers: Vec<PartitionStatsSnapshot>,
}

/// Why [`DoraEngine::migrate_range`] refused or failed a migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrateError {
    /// The routing table has no rule for the table.
    UnroutedTable(TableId),
    /// `lo >= hi`: the half-open interval `[lo, hi)` is empty.
    EmptyRange,
    /// The destination is not a valid partition id.
    InvalidDestination {
        /// The requested destination partition.
        dest: usize,
        /// How many partition workers the engine has.
        workers: usize,
    },
    /// The interval is currently owned by more than one partition; migrate
    /// each owner's sub-range separately (or coalesce first).
    SpansOwners,
    /// The engine shut down while the migration was in flight.
    Shutdown,
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::UnroutedTable(t) => write!(f, "table {t} has no routing rule"),
            MigrateError::EmptyRange => write!(f, "empty key range"),
            MigrateError::InvalidDestination { dest, workers } => {
                write!(
                    f,
                    "destination partition {dest} out of range ({workers} workers)"
                )
            }
            MigrateError::SpansOwners => {
                write!(f, "key range spans multiple current owners")
            }
            MigrateError::Shutdown => write!(f, "engine shut down during migration"),
        }
    }
}

impl std::error::Error for MigrateError {}

/// What one completed [`DoraEngine::migrate_range`] call moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// Table whose range moved.
    pub table: TableId,
    /// Inclusive lower bound of the moved range.
    pub lo: i64,
    /// Exclusive upper bound of the moved range.
    pub hi: i64,
    /// Partition that owned the range before.
    pub from: usize,
    /// Partition that owns the range now.
    pub to: usize,
    /// Lock-table entries transferred with the seal token.
    pub moved_locks: usize,
    /// Parked (waiting) actions transferred with the seal token.
    pub moved_parked: usize,
    /// Fresh arrivals the destination parked behind the range barrier
    /// while the handoff was in flight.
    pub barrier_held: usize,
    /// Parked actions whose key set straddled the range boundary; they
    /// were aborted with a retryable error instead of being moved.
    pub aborted_straddlers: usize,
    /// Wall-clock duration of the handoff (barrier install → seal ack).
    pub duration: Duration,
}

/// Panic payload of a deliberate worker kill ([`DoraEngine::kill_worker`]
/// or a chaos-plan kill point). Thrown with `resume_unwind` — bypassing
/// the panic hook — so injected deaths don't spray backtraces over test
/// output; the supervisor recognizes the payload and records a clean
/// cause instead of an opaque one.
struct ChaosKill;

/// What a dying worker thread hands the supervisor: its id, its entire
/// private state (queues, wait list, lock table, barriers — everything
/// recovery must salvage), and the cause.
struct CrashReport {
    id: usize,
    state: Box<WorkerState>,
    panic_msg: String,
    died_at: Instant,
}

/// Supervisor-side shared state. Deliberately built on `std::sync`
/// primitives only (no shimmed `parking_lot`/`crossbeam` types): the
/// supervisor is the engine's last line of defense and must not depend on
/// anything fancier than the standard library.
struct Supervision {
    /// Crash reports pushed by dying worker threads, drained by the
    /// supervisor.
    crashed: std::sync::Mutex<Vec<CrashReport>>,
    /// Signaled on every crash report and on shutdown.
    signal: std::sync::Condvar,
    /// Set by shutdown after the mailboxes close; tells the supervisor to
    /// join the workers and exit instead of respawning.
    stop: AtomicBool,
    /// Per-worker liveness counters, bumped once per worker-loop
    /// iteration. A worker whose heartbeat stops advancing while its
    /// thread is alive is stalled (e.g. a blocking action body) — visible
    /// through [`DoraEngine::heartbeats`] — but never forcibly killed:
    /// only a dead thread's state can be salvaged safely.
    heartbeats: Vec<AtomicU64>,
}

impl Supervision {
    fn new(workers: usize) -> Self {
        Supervision {
            crashed: std::sync::Mutex::new(Vec::new()),
            signal: std::sync::Condvar::new(),
            stop: AtomicBool::new(false),
            heartbeats: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// How many shards the transaction registry spreads its map over — keeps
/// the registry from becoming a new engine-wide critical section (the
/// very thing DORA removes from the lock manager).
const REGISTRY_SHARDS: usize = 16;

/// Live-transaction registry: `TxnId → TxnCtx` for every transaction
/// between `submit` and its finalize. The supervisor uses it to find (and
/// doom) the transactions holding salvaged locks on a dead partition;
/// nothing on the worker hot path reads it. `std::sync::Mutex` on
/// purpose — see [`Supervision`].
struct TxnRegistry {
    shards: Vec<std::sync::Mutex<HashMap<TxnId, Arc<TxnCtx>>>>,
}

impl TxnRegistry {
    fn new() -> Self {
        TxnRegistry {
            shards: (0..REGISTRY_SHARDS)
                .map(|_| std::sync::Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, txn: TxnId) -> std::sync::MutexGuard<'_, HashMap<TxnId, Arc<TxnCtx>>> {
        self.shards[txn as usize % REGISTRY_SHARDS]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn insert(&self, ctx: &Arc<TxnCtx>) {
        self.shard(ctx.txn).insert(ctx.txn, ctx.clone());
    }

    fn remove(&self, txn: TxnId) {
        self.shard(txn).remove(&txn);
    }

    fn get(&self, txn: TxnId) -> Option<Arc<TxnCtx>> {
        self.shard(txn).get(&txn).cloned()
    }
}

struct Inner {
    db: Arc<Database>,
    routing: RwLock<RoutingTable>,
    /// One mailbox per partition — the immutable handle table. `submit`
    /// and worker sends index it with **no lock at all** (the old
    /// `RwLock<Vec<Sender>>` read lock on every message is gone): the
    /// table never changes for the engine's lifetime, and shutdown flips
    /// each mailbox's `closed` flag instead of clearing the table, which
    /// is what lets workers observe disconnection and exit. Admission is
    /// fused into each mailbox's fresh-ring capacity, so the per-partition
    /// `QueueGate` and its SeqCst handshake are gone too.
    mailboxes: Vec<Mailbox<WorkerMsg>>,
    counters: EngineCounters,
    partitions: Vec<PartitionCounters>,
    trace: Arc<AccessTrace>,
    /// Transactions begun but not yet finalized.
    active: AtomicUsize,
    /// False once shutdown starts; submissions are rejected for good.
    accepting: AtomicBool,
    /// Bumped once per completed routing carve. Zero means "routing never
    /// changed", which lets workers skip the ownership re-check entirely —
    /// the steady-state hot path pays one relaxed load and a branch.
    migration_epoch: AtomicU64,
    /// Serializes `migrate_range` / `coalesce_routing` calls — the handoff
    /// protocol moves one range at a time.
    rebalance: Mutex<()>,
    /// When set, workers count executed keys into `key_loads` so the load
    /// balancer can find the hot sub-range to split off. Off by default:
    /// sampling costs a hash insert per action.
    key_sampling: AtomicBool,
    /// Per-partition cumulative key-load samples, flushed from worker-local
    /// maps on stats export. Callers window-diff the snapshot.
    key_loads: Vec<Mutex<HashMap<(TableId, i64), u64>>>,
    /// Round-robin cursor for secondary (non-aligned) actions.
    next_secondary: AtomicUsize,
    /// Crash reports, stop flag, and heartbeats shared with the
    /// supervisor thread.
    supervision: Supervision,
    /// Live transactions, for the supervisor's orphan sweep.
    registry: TxnRegistry,
    /// Armed chaos plan, if any. Read (one `RwLock` read + `Arc` clone)
    /// at each injection site; compiled out entirely without the hooks.
    #[cfg(any(test, feature = "chaos"))]
    chaos: RwLock<Option<Arc<ChaosState>>>,
    config: DoraEngineConfig,
}

/// The data-oriented execution engine.
pub struct DoraEngine {
    inner: Arc<Inner>,
    /// The supervisor thread; it owns the worker join handles.
    supervisor: Option<JoinHandle<()>>,
}

impl DoraEngine {
    /// Creates the engine and spawns one worker thread per partition,
    /// plus a supervisor thread that detects worker deaths and respawns
    /// them (see [`DoraEngine::kill_worker`]).
    pub fn new(db: Arc<Database>, routing: RoutingTable, config: DoraEngineConfig) -> Self {
        assert!(config.workers > 0, "need at least one partition worker");
        let inner = Arc::new(Inner {
            db,
            routing: RwLock::new(routing),
            mailboxes: (0..config.workers)
                .map(|_| Mailbox::new(config.queue_capacity))
                .collect(),
            counters: EngineCounters::default(),
            partitions: (0..config.workers)
                .map(|_| PartitionCounters::default())
                .collect(),
            trace: Arc::new(AccessTrace::new()),
            active: AtomicUsize::new(0),
            accepting: AtomicBool::new(true),
            migration_epoch: AtomicU64::new(0),
            rebalance: Mutex::new(()),
            key_sampling: AtomicBool::new(false),
            key_loads: (0..config.workers)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            next_secondary: AtomicUsize::new(0),
            supervision: Supervision::new(config.workers),
            registry: TxnRegistry::new(),
            #[cfg(any(test, feature = "chaos"))]
            chaos: RwLock::new(None),
            config,
        });
        let handles = (0..inner.config.workers)
            .map(|id| {
                spawn_worker(
                    inner.clone(),
                    WorkerState::new(id, inner.config.workers, inner.trace.clone()),
                )
            })
            .collect();
        let supervisor = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("dora-supervisor".into())
                .spawn(move || supervisor_loop(inner, handles))
                .expect("spawn DORA supervisor")
        };
        DoraEngine {
            inner,
            supervisor: Some(supervisor),
        }
    }

    /// Kills partition worker `id`: a `Die` token rides the priority lane
    /// and makes the worker panic at its next dequeue point, exactly as
    /// if a stray panic had escaped the user-body guard. The supervisor
    /// then aborts every in-flight transaction touching the partition
    /// (retryably), salvages the queues, and respawns the worker —
    /// this is the engine-level crash the availability bench and the
    /// chaos oracle measure recovery from. Returns `false` when `id` is
    /// out of range or the mailbox is already closed (engine shutting
    /// down).
    ///
    /// Always compiled (unlike the seeded chaos hooks): deliberate kills
    /// are part of the engine's public failure-injection surface.
    pub fn kill_worker(&self, id: usize) -> bool {
        let Some(mailbox) = self.inner.mailboxes.get(id) else {
            return false;
        };
        let ok = mailbox.push_priority(WorkerMsg::Die).is_ok();
        if ok {
            self.inner
                .counters
                .chaos_kills
                .fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Per-worker liveness counters, bumped once per worker-loop
    /// iteration. A counter that stops advancing names a stalled (or
    /// dead-and-recovering) partition.
    pub fn heartbeats(&self) -> Vec<u64> {
        self.inner
            .supervision
            .heartbeats
            .iter()
            .map(|h| h.load(Ordering::Relaxed))
            .collect()
    }

    /// Arms a deterministic chaos plan: worker kills at scheduled dequeue
    /// points, delivery delays on outbox flushes, forced admission
    /// failures on client pushes (see [`crate::chaos`]). Install before
    /// offering traffic — the plan counts operations from zero. Only
    /// compiled under `cfg(test)` or the `chaos` feature.
    #[cfg(any(test, feature = "chaos"))]
    pub fn install_chaos(&self, plan: crate::chaos::ChaosPlan) {
        *self.inner.chaos.write() =
            Some(Arc::new(ChaosState::new(plan, self.inner.config.workers)));
    }

    /// The underlying database.
    pub fn db(&self) -> &Arc<Database> {
        &self.inner.db
    }

    /// The engine's access trace (disabled unless enabled by the caller).
    pub fn trace(&self) -> &Arc<AccessTrace> {
        &self.inner.trace
    }

    /// Number of partition worker threads.
    pub fn worker_count(&self) -> usize {
        self.inner.config.workers
    }

    /// A copy of the current routing configuration.
    pub fn routing(&self) -> RoutingTable {
        self.inner.routing.read().clone()
    }

    /// Moves ownership of the key range `[lo, hi)` of `table` to partition
    /// `dest` **without stopping traffic** — the run-time re-partitioning
    /// primitive the designer's load balancer is built on.
    ///
    /// The handoff is a three-step protocol, serialized engine-wide:
    ///
    /// 1. **Barrier** — the destination worker installs a range barrier
    ///    and acks. Fresh arrivals for the moving range park behind it
    ///    (they must not run before the source's lock state arrives).
    /// 2. **Carve** — the routing table is rewritten so new work for the
    ///    range routes to `dest`, and the migration epoch is bumped.
    ///    Unaffected ranges keep flowing through both workers the whole
    ///    time.
    /// 3. **Seal** — the source worker extracts the range's local lock
    ///    entries and parked actions and ships them to the destination in
    ///    a [`WorkerMsg::RangeSealed`] token. The destination absorbs the
    ///    lock state, re-admits the transferred and barrier-held actions
    ///    in order, and acks completion.
    ///
    /// Messages routed before the carve but delivered after the seal are
    /// absorbed by an epoch-gated ownership re-check on every worker:
    /// actions and finishes for keys the current routing assigns elsewhere
    /// are forwarded to the owner instead of running locally.
    ///
    /// The range must currently belong to a single partition
    /// ([`MigrateError::SpansOwners`] otherwise); migrating a range to its
    /// current owner is a no-op that reports zero moved state.
    pub fn migrate_range(
        &self,
        table: TableId,
        lo: i64,
        hi: i64,
        dest: usize,
    ) -> Result<MigrationReport, MigrateError> {
        let workers = self.inner.config.workers;
        if dest >= workers {
            return Err(MigrateError::InvalidDestination { dest, workers });
        }
        if lo >= hi {
            return Err(MigrateError::EmptyRange);
        }
        // One migration at a time: the protocol assumes a single moving
        // range, and the barrier/seal tickets are matched per migration.
        let _serialize = self.inner.rebalance.lock();
        let src = {
            let routing = self.inner.routing.read();
            let rule = routing
                .rule(table)
                .ok_or(MigrateError::UnroutedTable(table))?;
            let first = rule.range_of(lo);
            let last = rule.range_of(hi - 1);
            let src = rule.owners[first] % workers;
            if rule.owners[first..=last]
                .iter()
                .any(|&o| o % workers != src)
            {
                return Err(MigrateError::SpansOwners);
            }
            src
        };
        let started = Instant::now();
        if src == dest {
            return Ok(MigrationReport {
                table,
                lo,
                hi,
                from: src,
                to: dest,
                moved_locks: 0,
                moved_parked: 0,
                barrier_held: 0,
                aborted_straddlers: 0,
                duration: started.elapsed(),
            });
        }
        let (installed_tx, installed_rx) = oneshot::channel();
        let (done_tx, done_rx) = oneshot::channel();
        let ticket = Arc::new(MigrationTicket {
            table,
            lo,
            hi,
            src,
            dst: dest,
            installed: installed_tx,
            done: done_tx,
        });
        // Step 1: barrier first, and *wait* for the ack. Carving before
        // the barrier is installed would let the destination run a fresh
        // in-range action ahead of the seal token's lock state.
        if self.inner.mailboxes[dest]
            .push_priority(WorkerMsg::RangeBegin {
                ticket: ticket.clone(),
            })
            .is_err()
        {
            return Err(MigrateError::Shutdown);
        }
        if installed_rx.recv().is_err() {
            return Err(MigrateError::Shutdown);
        }
        // Step 2: carve. From here on, fresh work for the range routes to
        // `dest` and parks behind the barrier.
        {
            let mut routing = self.inner.routing.write();
            let rule = routing.rule_mut(table).expect("rule checked above");
            rule.carve(lo, hi, dest);
        }
        self.inner.migration_epoch.fetch_add(1, Ordering::Release);
        // Step 3: tell the source to seal. The drain request rides the
        // priority lane, so it is ordered after every in-range action the
        // source already drained into its local queues — those run (or
        // park) under source authority first, and anything still parked at
        // seal time transfers with the token.
        if self.inner.mailboxes[src]
            .push_priority(WorkerMsg::RangeDrain { ticket })
            .is_err()
        {
            return Err(MigrateError::Shutdown);
        }
        match done_rx.recv() {
            Ok(seal) => Ok(MigrationReport {
                table,
                lo,
                hi,
                from: src,
                to: dest,
                moved_locks: seal.moved_locks,
                moved_parked: seal.moved_parked,
                barrier_held: seal.barrier_held,
                aborted_straddlers: seal.aborted_straddlers,
                duration: started.elapsed(),
            }),
            Err(_) => Err(MigrateError::Shutdown),
        }
    }

    /// Merges adjacent same-owner ranges in `table`'s routing rule,
    /// returning how many boundaries were removed. Ownership is unchanged,
    /// so no handoff protocol is needed — this just keeps rule lookup
    /// cheap after many migrations fragment the table.
    pub fn coalesce_routing(&self, table: TableId) -> usize {
        let _serialize = self.inner.rebalance.lock();
        let mut routing = self.inner.routing.write();
        routing.rule_mut(table).map(|r| r.coalesce()).unwrap_or(0)
    }

    /// Enables or disables per-key load sampling (off by default). While
    /// enabled, workers count executed keys into a per-partition map the
    /// balancer reads via [`DoraEngine::key_load_snapshot`] to pick the
    /// hot sub-range to split off.
    pub fn set_key_sampling(&self, enabled: bool) {
        self.inner.key_sampling.store(enabled, Ordering::Relaxed);
    }

    /// Cumulative per-key execution counts gathered while key sampling was
    /// enabled. Counts are flushed from worker-local maps on stats export,
    /// so the snapshot trails execution slightly; callers window-diff it.
    pub fn key_load_snapshot(&self) -> HashMap<(TableId, i64), u64> {
        let mut out = HashMap::new();
        for shard in &self.inner.key_loads {
            for (&k, &v) in shard.lock().iter() {
                *out.entry(k).or_insert(0) += v;
            }
        }
        out
    }

    /// Total number of messages waiting in partition mailboxes (both
    /// lanes; admitted-but-unprocessed fresh actions included).
    pub fn queue_len(&self) -> usize {
        self.inner.mailboxes.iter().map(|m| m.len()).sum()
    }

    /// Submits a transaction flow graph; the returned one-shot receiver
    /// yields its outcome once the terminal RVP decides commit or abort.
    ///
    /// Partition queues are bounded: when the first phase targets a
    /// partition whose queue is full, this call **blocks** (back-pressure)
    /// up to [`DoraEngineConfig::submit_timeout`] and then rejects the
    /// transaction with an abort outcome — overload is never a silent
    /// drop.
    pub fn submit(&self, flow: FlowGraph) -> oneshot::Receiver<TxnOutcome> {
        let (reply_tx, reply_rx) = oneshot::channel();
        // Routing migrations never pause intake — a submission racing a
        // carve routes under whichever table version it reads, and the
        // workers' epoch-gated ownership check forwards anything that
        // lands on a stale owner. Only shutdown rejects.
        self.inner.active.fetch_add(1, Ordering::AcqRel);
        if !self.inner.accepting.load(Ordering::Acquire) {
            self.inner.active.fetch_sub(1, Ordering::AcqRel);
            let _ = reply_tx.send(TxnOutcome::Aborted {
                reason: "engine is not accepting new transactions".into(),
            });
            return reply_rx;
        }
        let txn = self.inner.db.begin();
        let ctx = Arc::new(TxnCtx::new(txn, flow.name, flow.next, reply_tx));
        // Registered until finalize: if a partition worker dies while this
        // transaction holds locks there, the supervisor finds (and dooms)
        // it through the registry.
        self.inner.registry.insert(&ctx);
        advance(&self.inner, &ctx, flow.first, None);
        reply_rx
    }

    /// Submits a transaction and blocks until it finishes.
    pub fn execute(&self, flow: FlowGraph) -> TxnOutcome {
        self.submit(flow).recv().unwrap_or(TxnOutcome::Aborted {
            reason: "engine dropped the transaction".into(),
        })
    }

    /// Engine counters plus per-partition breakdown.
    pub fn stats(&self) -> DoraStatsSnapshot {
        let c = &self.inner.counters;
        DoraStatsSnapshot {
            committed: c.committed.load(Ordering::Relaxed),
            aborted: c.aborted.load(Ordering::Relaxed),
            actions: c.actions.load(Ordering::Relaxed),
            deferrals: c.deferrals.load(Ordering::Relaxed),
            secondary: c.secondary.load(Ordering::Relaxed),
            secondary_retries: c.secondary_retries.load(Ordering::Relaxed),
            secondary_parked: c.secondary_parked.load(Ordering::Relaxed),
            log_io_errors: c.log_io_errors.load(Ordering::Relaxed),
            migrations: c.migrations.load(Ordering::Relaxed),
            forwarded: c.forwarded.load(Ordering::Relaxed),
            worker_restarts: c.worker_restarts.load(Ordering::Relaxed),
            orphan_aborts: c.orphan_aborts.load(Ordering::Relaxed),
            chaos_kills: c.chaos_kills.load(Ordering::Relaxed),
            restart_pause_us: c.restart_pause_us.load(Ordering::Relaxed),
            shutdown_stranded: c.shutdown_stranded.load(Ordering::Relaxed),
            workers: self
                .inner
                .partitions
                .iter()
                .zip(&self.inner.mailboxes)
                .map(|(p, mailbox)| PartitionStatsSnapshot {
                    executed: p.executed.load(Ordering::Relaxed),
                    busy_ns: p.busy_ns.load(Ordering::Relaxed),
                    queue_depth: mailbox.len() as u64,
                    locks: LocalLockStats {
                        acquired: p.lock_acquired.load(Ordering::Relaxed),
                        conflicts: p.lock_conflicts.load(Ordering::Relaxed),
                        released: p.lock_released.load(Ordering::Relaxed),
                    },
                    deferred: p.deferred_depth.load(Ordering::Relaxed),
                    wakeups: p.wakeups.load(Ordering::Relaxed),
                    rescans_avoided: p.rescans_avoided.load(Ordering::Relaxed),
                    outbox_msgs: p.outbox_msgs.load(Ordering::Relaxed),
                    outbox_pushes: p.outbox_pushes.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Stops accepting work, lets in-flight transactions finish (parked
    /// actions resolve or time out), then joins the supervisor and all
    /// workers. Returns the number of transactions still active when the
    /// backstop deadline expired (0 on every normal shutdown) — also
    /// counted in [`DoraStatsSnapshot::shutdown_stranded`].
    pub fn shutdown(mut self) -> u64 {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> u64 {
        self.inner.accepting.store(false, Ordering::Release);
        // In-flight transactions always terminate: every parked action
        // either acquires its locks or aborts after `lock_timeout`, and a
        // submission blocked on admission resolves within
        // `submit_timeout`. The deadline below is a defensive backstop,
        // not the normal path — and when it *does* fire, that is a
        // liveness bug worth surfacing, not shrugging off silently.
        let deadline = Instant::now()
            + self.inner.config.lock_timeout
            + self.inner.config.submit_timeout
            + self.inner.config.shutdown_grace;
        while self.inner.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        let stranded = self.inner.active.load(Ordering::Acquire) as u64;
        if stranded > 0 {
            self.inner
                .counters
                .shutdown_stranded
                .fetch_add(stranded, Ordering::Relaxed);
            eprintln!(
                "dora-core: shutdown backstop expired with {stranded} transaction(s) still \
                 active; closing mailboxes — they will abort visibly as the workers drain"
            );
        }
        for mailbox in &self.inner.mailboxes {
            mailbox.close();
        }
        self.inner.supervision.stop.store(true, Ordering::Release);
        self.inner.supervision.signal.notify_all();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
        stranded
    }
}

impl Drop for DoraEngine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// All mutable state a partition worker owns. Touched only by its thread;
/// passed down the call tree so RVP logic running on this worker can
/// release locks, wake parked actions, and execute next-phase actions
/// inline.
struct WorkerState {
    id: usize,
    /// The worker's identity for storage-level access tracing.
    ctx: WorkerCtx,
    locks: LocalLockTable,
    waiting: WaitList,
    /// Keys released on this worker since wakeups were last drained
    /// (by local finalizes and incoming finish messages).
    pending_wake: Vec<(TableId, i64)>,
    /// Second wake buffer: `drain_wakeups` ping-pongs it with
    /// `pending_wake` so cascade rounds reuse the same two allocations
    /// instead of reallocating per round.
    wake_scratch: Vec<(TableId, i64)>,
    /// Priority lane: later-phase actions — they can unblock an RVP other
    /// partitions already executed for.
    priority: VecDeque<ActionEnvelope>,
    /// Normal lane: fresh phase-1 actions admitted through the gate.
    fresh: VecDeque<ActionEnvelope>,
    /// Last deferred depth published to the shared snapshot (stats are
    /// exported on transitions, not per loop iteration).
    exported_deferred: u64,
    /// Whether lock/queue counters changed since the last export — the
    /// idle-path export is skipped entirely when nothing moved.
    stats_dirty: bool,
    /// Current nesting of inline own-partition dispatch (report → advance
    /// → handle_action → report …). Bounded so a same-partition
    /// multi-phase chain cannot grow the worker stack without limit.
    inline_depth: u32,
    /// Outbox: cross-partition messages produced during the current drain
    /// batch, buffered per target partition. Flushed once per loop
    /// iteration (and before parking) as **one** mailbox push per target —
    /// same-target sends coalesce into a [`WorkerMsg::Batch`].
    outbox: Vec<Vec<WorkerMsg>>,
    /// Partitions with a non-empty outbox buffer.
    outbox_dirty: Vec<usize>,
    /// Range barriers installed by in-flight migrations targeting this
    /// partition. Fresh arrivals for a barricaded range are held here
    /// until the source's seal token delivers the range's lock state.
    /// Empty except during a migration — the hot path pays one
    /// `is_empty()` check.
    barriers: Vec<RangeBarrier>,
    /// Worker-local per-key execution counts while key sampling is on;
    /// flushed into the shared per-partition map on stats export.
    key_counts: HashMap<(TableId, i64), u64>,
    /// Set by a [`WorkerMsg::Die`] token during intake; the worker panics
    /// at its next dequeue point. Never acted on inside a mailbox drain
    /// callback — unwinding there would drop the rest of the drained
    /// batch on the floor.
    die_requested: bool,
    /// Actions currently between their body run and the completion of
    /// their RVP report, innermost last (inline dispatch nests). Empty at
    /// every dequeue point — where deliberate kills land — so this only
    /// carries state when a *bug* panics inside engine code mid-report;
    /// the supervisor then reports the interrupted slots so no RVP waits
    /// forever on a dead worker.
    executing: Vec<ExecutingAction>,
}

/// One in-flight RVP report on a worker's stack (see
/// [`WorkerState::executing`]).
struct ExecutingAction {
    txn: Arc<TxnCtx>,
    rvp: Arc<Rvp>,
    slot: usize,
    /// True once `Rvp::report` has been entered for this slot: the
    /// supervisor must then *not* report it again (double-reporting a
    /// slot corrupts the rendezvous count) and instead salvage-finalizes
    /// the transaction if the post-report handling never finished.
    reported: bool,
}

/// A destination-side hold on one migrating key range: actions for
/// `[ticket.lo, ticket.hi)` of `ticket.table` arriving between the
/// routing carve and the seal token park here in arrival order.
struct RangeBarrier {
    ticket: Arc<MigrationTicket>,
    held: VecDeque<ActionEnvelope>,
}

impl WorkerState {
    fn new(id: usize, workers: usize, trace: Arc<AccessTrace>) -> Self {
        WorkerState {
            id,
            ctx: WorkerCtx::new(id, trace),
            locks: LocalLockTable::new(),
            waiting: WaitList::new(),
            pending_wake: Vec::new(),
            wake_scratch: Vec::new(),
            priority: VecDeque::new(),
            fresh: VecDeque::new(),
            exported_deferred: 0,
            stats_dirty: false,
            inline_depth: 0,
            outbox: (0..workers).map(|_| Vec::new()).collect(),
            outbox_dirty: Vec::new(),
            barriers: Vec::new(),
            key_counts: HashMap::new(),
            die_requested: false,
            executing: Vec::new(),
        }
    }

    fn has_intake(&self) -> bool {
        !self.priority.is_empty() || !self.fresh.is_empty() || !self.pending_wake.is_empty()
    }

    /// Buffers one cross-partition message for the end-of-iteration flush.
    fn send_later(&mut self, partition: usize, msg: WorkerMsg) {
        if self.outbox[partition].is_empty() {
            self.outbox_dirty.push(partition);
        }
        self.outbox[partition].push(msg);
    }
}

/// Dispatches the next phase of `ctx`'s transaction (or commits it when
/// `specs` is empty). `local` is the calling worker's state when invoked
/// from RVP logic; `None` when invoked from `submit` — which is also what
/// routes fresh phases through mailbox admission (reserving a fresh-ring
/// slot *is* the admission gate).
fn advance(
    inner: &Arc<Inner>,
    ctx: &Arc<TxnCtx>,
    specs: Vec<ActionSpec>,
    local: Option<&mut WorkerState>,
) {
    if specs.is_empty() {
        // An empty phase ends the transaction — but only legitimately when
        // no later phases are queued. Committing while generators wait
        // would silently drop them; surface the flow-graph bug instead.
        let pending = ctx.phases.lock().len();
        let failure = (pending > 0).then(|| {
            StorageError::Internal(format!(
                "empty phase with {pending} phase generator(s) still queued"
            ))
        });
        finalize(inner, ctx, failure, local);
        return;
    }
    let assignments = {
        let routing = inner.routing.read();
        route_phase(
            &routing,
            inner.config.workers,
            &inner.next_secondary,
            &specs,
        )
    };
    let assignments = match assignments {
        Ok(a) => a,
        Err(e) => {
            finalize(inner, ctx, Some(e.into()), local);
            return;
        }
    };
    // A fresh (phase-1) dispatch pays admission: pushing onto a
    // partition's fresh ring reserves the slot, blocking — back-pressure —
    // while the ring is full, with one `submit_timeout` budget shared by
    // the whole phase. Later phases ride the priority lanes (their
    // transactions are already inside the engine, and a worker must never
    // block sending to another worker).
    let mut local = local;
    let local_id = local.as_deref().map(|st| st.id);
    let rvp = Arc::new(Rvp::new(specs.len()));
    let now = Instant::now();
    let admission_deadline = now + inner.config.submit_timeout;
    let mut inline = Vec::new();
    let mut phase_failure = None;
    let mut specs = specs.into_iter().zip(assignments).enumerate();
    for (slot, (spec, partition)) in specs.by_ref() {
        if !spec.aligned {
            inner.counters.secondary.fetch_add(1, Ordering::Relaxed);
        }
        ctx.mark_involved(partition, spec.table, &spec.keys);
        let envelope = ActionEnvelope {
            slot,
            table: spec.table,
            keys: spec.keys,
            body: spec.body,
            txn: ctx.clone(),
            rvp: rvp.clone(),
            dispatched: now,
        };
        // An action for this very worker's partition runs inline below —
        // no queue round-trip; it IS the front of the priority lane.
        if Some(partition) == local_id {
            inline.push(envelope);
            continue;
        }
        if let Some(st) = local.as_deref_mut() {
            // Worker-side send: buffered and coalesced; flushed once per
            // loop iteration as one push per target partition.
            st.send_later(partition, WorkerMsg::Action(envelope));
            continue;
        }
        // Chaos hook: an armed plan may force every Nth client-side fresh
        // push to fail as if the ring were full, exercising the admission
        // back-pressure abort path without actually filling queues.
        #[cfg(any(test, feature = "chaos"))]
        let pushed = {
            let forced = inner
                .chaos
                .read()
                .as_ref()
                .is_some_and(|chaos| chaos.forced_admission_failure());
            if forced {
                Err(PushError::Full(WorkerMsg::Action(envelope)))
            } else {
                inner.mailboxes[partition]
                    .push_fresh(WorkerMsg::Action(envelope), admission_deadline)
            }
        };
        #[cfg(not(any(test, feature = "chaos")))]
        let pushed =
            inner.mailboxes[partition].push_fresh(WorkerMsg::Action(envelope), admission_deadline);
        match pushed {
            Ok(()) => {}
            Err(err) => {
                // Admission failed for this slot: fail it and every
                // not-yet-dispatched sibling at the RVP. Already-enqueued
                // siblings that run observe `rvp.failed()` and skip their
                // doomed work; the transaction aborts visibly, never
                // silently.
                let reason = match err {
                    PushError::Full(_) => StorageError::Aborted(
                        "partition queue full: admission timed out under back-pressure".into(),
                    ),
                    PushError::Closed(_) => StorageError::Aborted("engine is shutting down".into()),
                };
                let mut undispatched = vec![slot];
                undispatched.extend(specs.by_ref().map(|(slot, _)| slot));
                for slot in undispatched {
                    if let PhaseEnd::Last { failure, .. } = rvp.report(slot, Err(reason.clone())) {
                        phase_failure = Some(failure.unwrap_or_else(|| reason.clone()));
                    }
                }
                if phase_failure.is_none() {
                    // Dispatched siblings are still out, and one parked
                    // on a lock would only notice `rvp.failed()` at a key
                    // release or its own lock-timeout — up to lock_timeout
                    // of needless lock-holding and reply latency. Probe
                    // the involved partitions so parked doomed actions
                    // abort now: the client-thread mirror of
                    // `nudge_doomed` (one direct lock-free push each; a
                    // closed mailbox means that worker is already
                    // aborting everything).
                    let remote: Vec<usize> = {
                        let involved = ctx.involved.lock();
                        involved
                            .iter()
                            .filter(|(_, keys)| !keys.is_empty())
                            .map(|(p, _)| *p)
                            .collect()
                    };
                    for partition in remote {
                        let _ = inner.mailboxes[partition]
                            .push_priority(WorkerMsg::Probe { txn: ctx.txn });
                    }
                }
                break;
            }
        }
    }
    if let Some(failure) = phase_failure {
        // Only reachable on the fresh path (no inline actions pending):
        // every slot has reported, so the transaction ends here.
        finalize(inner, ctx, Some(failure), local);
        return;
    }
    if let Some(st) = local {
        for envelope in inline {
            // Inline execution recurses (report → advance → here); past a
            // fixed depth, fall back to the priority lane so an arbitrarily
            // long same-partition phase chain unwinds through the worker
            // loop instead of overflowing the stack. The lane keeps its
            // cut-ahead-of-fresh-work property either way.
            if st.inline_depth >= INLINE_DISPATCH_DEPTH {
                st.priority.push_back(envelope);
            } else {
                st.inline_depth += 1;
                handle_action(inner, st, envelope);
                st.inline_depth -= 1;
            }
        }
    }
}

/// Terminates a transaction: commit (when `failure` is `None`) or abort.
/// Releases the calling worker's local locks directly (queueing wakeups
/// for actions parked on them) and sends every other involved partition
/// one batched `Finish` carrying the keys the transaction touched there —
/// via the worker's outbox (coalesced with any other same-target sends of
/// the drain batch) or, from a client thread, one direct lock-free push.
fn finalize(
    inner: &Arc<Inner>,
    ctx: &Arc<TxnCtx>,
    failure: Option<StorageError>,
    local: Option<&mut WorkerState>,
) {
    // Exactly-once: the supervisor's salvage path can race a worker-side
    // finalize for the same transaction (it steals the transaction when a
    // worker died mid-report); whoever wins the CAS terminates it, the
    // loser backs off without touching counters, reply, or `active`.
    if !ctx.try_finalize() {
        return;
    }
    // A doomed transaction (a worker holding part of its lock state died)
    // must not commit even if its remaining actions all succeeded: the
    // contract is a retryable abort, so the client re-runs it against the
    // recovered partition instead of relying on salvaged state.
    let failure = match failure {
        None if ctx.is_doomed() => Some(StorageError::WorkerUnavailable(
            "transaction straddled a partition worker that died".into(),
        )),
        other => other,
    };
    let outcome = match failure {
        None => match inner.db.commit_policy(ctx.txn, DORA_POLICY) {
            Ok(()) => TxnOutcome::Committed,
            Err(e) => {
                // A durability failure surfaces *before* the transaction
                // is marked committed: roll it back so its writes never
                // become visible, and count the I/O failure distinctly.
                if matches!(e, StorageError::LogIo(_) | StorageError::LogPoisoned(_)) {
                    inner.counters.log_io_errors.fetch_add(1, Ordering::Relaxed);
                }
                let _ = inner.db.abort_policy(ctx.txn, DORA_POLICY);
                TxnOutcome::Aborted {
                    reason: format!("commit failed: {e}"),
                }
            }
        },
        Some(e) => {
            let _ = inner.db.abort_policy(ctx.txn, DORA_POLICY);
            TxnOutcome::Aborted {
                reason: e.to_string(),
            }
        }
    };
    let mut local = local;
    let local_id = local.as_deref().map(|st| st.id);
    // Split the involvement list once: release this worker's keys in
    // place, clone only what must travel to other partitions. The common
    // single-partition transaction clones nothing and sends nothing.
    let mut remote: Vec<(usize, Vec<(TableId, i64)>)> = Vec::new();
    {
        let involved = ctx.involved.lock();
        if let Some(st) = local.as_deref_mut() {
            if let Some((_, keys)) = involved.iter().find(|(p, _)| Some(*p) == local_id) {
                if st
                    .locks
                    .release_keys_into(ctx.txn, keys, &mut st.pending_wake)
                    > 0
                {
                    st.stats_dirty = true;
                }
                // A migration may have moved some of these keys' lock
                // entries to another partition after this worker acquired
                // them (the local release above is a no-op for those).
                // Forward a Finish to the current owner so the transferred
                // entries are released too.
                if inner.migration_epoch.load(Ordering::Relaxed) > 0 {
                    for (owner, keys) in foreign_keys(inner, st.id, keys) {
                        inner.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                        st.send_later(owner, WorkerMsg::Finish { txn: ctx.txn, keys });
                    }
                }
            }
            // A transaction completing here is a natural transition point
            // to publish this worker's counters — when any moved. A worker
            // that only ran keyless secondary probes for this transaction
            // has no lock or queue transition to export, so the dirty flag
            // covers that case uniformly (no special-casing by action
            // kind).
            if st.stats_dirty {
                export_stats(inner, st);
            }
        }
        for (partition, keys) in involved.iter() {
            // An empty key set means the partition only ran secondary
            // probes that never parked on a key (a diverted probe records
            // its park key and is released like any aligned access):
            // nothing to release, no one to wake, no Finish needed.
            if Some(*partition) != local_id && !keys.is_empty() {
                remote.push((*partition, keys.clone()));
            }
        }
    }
    for (partition, keys) in remote {
        let msg = WorkerMsg::Finish { txn: ctx.txn, keys };
        match local.as_deref_mut() {
            Some(st) => st.send_later(partition, msg),
            // Client-thread finalize (admission/routing failure): one
            // lock-free push; a closed mailbox means the engine is gone
            // and its locks with it.
            None => {
                let _ = inner.mailboxes[partition].push_priority(msg);
            }
        }
    }
    match &outcome {
        TxnOutcome::Committed => inner.counters.committed.fetch_add(1, Ordering::Relaxed),
        TxnOutcome::Aborted { .. } => inner.counters.aborted.fetch_add(1, Ordering::Relaxed),
    };
    let _ = ctx.reply.send(outcome);
    inner.registry.remove(ctx.txn);
    inner.active.fetch_sub(1, Ordering::AcqRel);
}

/// The partition worker ("micro-engine") main loop.
///
/// Event-driven: the worker parks on its mailbox when it has nothing
/// actionable (`Mailbox::park` — sleeping only on verified-empty), with a
/// deadline only when parked actions exist — sized to the earliest
/// lock-timeout expiry, not a fixed poll interval. Each iteration
/// **batch-drains** the mailbox: the priority lane in one atomic swap
/// (finishes apply their lock releases immediately), the fresh ring's
/// published segment in one pass. It then wakes parked actions whose keys
/// were released, runs one action — priority lane first — and flushes the
/// outbox (one coalesced push per target partition touched this
/// iteration).
fn worker_loop(inner: &Arc<Inner>, st: &mut WorkerState) {
    let id = st.id;
    let mailbox = &inner.mailboxes[id];
    let mut batch: Vec<WorkerMsg> = Vec::new();
    loop {
        // Liveness heartbeat for the supervisor: one relaxed bump per
        // iteration on a line nobody contends.
        inner.supervision.heartbeats[id].fetch_add(1, Ordering::Relaxed);
        if !st.has_intake() && !mailbox.has_pending() {
            // Nothing actionable and nothing visibly queued: publish
            // counters if they moved, then park until a message is
            // published or the earliest parked deadline passes (the sweep
            // below handles expiry). While traffic keeps flowing the
            // `has_pending` probe skips the park handshake entirely.
            if st.stats_dirty {
                export_stats(inner, st);
            }
            // `park` polls, yields a bounded number of times and only then
            // sleeps (`crate::wait`): under continuous load the next
            // message typically lands within a few scheduler yields, so the
            // park/unpark syscall pair is paid only by genuinely idle
            // partitions. This is what keeps a *balanced* partition spread
            // from losing to a single hot worker whose never-empty queue
            // amortizes the wakeups away.
            mailbox.park(st.waiting.next_deadline(inner.config.lock_timeout));
        }
        if mailbox.is_closed() {
            break;
        }
        // Priority lane first: one swap takes the whole segment.
        mailbox.drain_priority_with(|msg| intake(inner, st, msg));
        // Fresh ring: the published segment in one pass, straight into
        // the local lane. Admission slots stay claimed until each action
        // is taken up for processing.
        mailbox.drain_fresh_with(|msg| match msg {
            WorkerMsg::Action(envelope) => st.fresh.push_back(envelope),
            other => intake(inner, st, other),
        });
        drain_wakeups(inner, st);
        // The dequeue point is where deliberate kills land: *after* the
        // drains (every delivered envelope is safely in `st`'s queues for
        // the supervisor to salvage — zero loss) and *before* popping the
        // next action (a popped envelope would die in a local variable).
        // `resume_unwind` skips the panic hook, so an injected death
        // doesn't spray a backtrace; the top-level `catch_unwind` in
        // `spawn_worker` still catches it and files the crash report.
        if st.die_requested {
            std::panic::resume_unwind(Box::new(ChaosKill));
        }
        #[cfg(any(test, feature = "chaos"))]
        if !st.priority.is_empty() || !st.fresh.is_empty() {
            let chaos = inner.chaos.read().clone();
            if let Some(chaos) = chaos {
                if chaos.should_kill(id) {
                    inner.counters.chaos_kills.fetch_add(1, Ordering::Relaxed);
                    std::panic::resume_unwind(Box::new(ChaosKill));
                }
            }
        }
        let next = st.priority.pop_front().or_else(|| {
            // Taking a fresh action up for processing frees its
            // admission slot.
            st.fresh.pop_front().inspect(|_| mailbox.free_fresh_slot())
        });
        if let Some(envelope) = next {
            handle_action(inner, st, envelope);
        }
        // Busy-path backstop: abort parked actions whose lock timeout
        // passed while the worker was occupied (the idle path already
        // wakes up exactly on time).
        if !st.waiting.is_empty()
            && st
                .waiting
                .deadline_passed(inner.config.lock_timeout, Instant::now())
        {
            sweep_expired(inner, st);
        }
        sync_deferred(inner, st);
        flush_outbox(inner, st);
    }
    // Shutdown: whatever is still queued or parked can never complete (no
    // further messages will arrive) — abort those transactions. The
    // mailbox is drained too (see `Mailbox::drain_closed_into`): a close
    // never drops admitted work silently.
    mailbox.drain_closed_into(&mut batch);
    let mut leftovers: Vec<ActionEnvelope> = Vec::new();
    for msg in batch.drain(..) {
        collect_leftover_actions(msg, &mut leftovers);
    }
    let fresh_backlog = st.fresh.len();
    leftovers.extend(st.priority.drain(..));
    leftovers.extend(st.fresh.drain(..));
    for _ in 0..fresh_backlog {
        mailbox.free_fresh_slot();
    }
    leftovers.extend(st.waiting.drain());
    // Barrier-held arrivals are stranded too: their seal token will never
    // come (the source worker is shutting down with everyone else).
    for barrier in st.barriers.drain(..) {
        leftovers.extend(barrier.held);
    }
    for envelope in leftovers {
        complete(
            inner,
            st,
            envelope,
            Err(StorageError::Aborted("engine is shutting down".into())),
        );
    }
    // Completing leftovers can produce finish/probe messages for other
    // partitions; push what still can be delivered, drop the rest (their
    // mailboxes are as dead as this one).
    flush_outbox(inner, st);
    export_stats(inner, st);
}

/// Spawns one partition worker thread around a top-level `catch_unwind`:
/// a panic that escapes the per-body guard (an engine bug, or a
/// deliberate [`ChaosKill`]) does not take the partition's state down
/// with the thread — the dying thread boxes its entire [`WorkerState`]
/// into a [`CrashReport`] and wakes the supervisor, which salvages it and
/// respawns the worker.
fn spawn_worker(inner: Arc<Inner>, st: WorkerState) -> JoinHandle<()> {
    let id = st.id;
    std::thread::Builder::new()
        .name(format!("dora-worker-{id}"))
        .spawn(move || {
            let mut st = st;
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                worker_loop(&inner, &mut st)
            }));
            if let Err(payload) = run {
                let report = CrashReport {
                    id,
                    panic_msg: describe_panic(payload.as_ref()),
                    state: Box::new(st),
                    died_at: Instant::now(),
                };
                inner
                    .supervision
                    .crashed
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(report);
                inner.supervision.signal.notify_all();
            }
        })
        .expect("spawn DORA partition worker")
}

/// Human-readable cause for a crash report.
fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if payload.is::<ChaosKill>() {
        return "injected worker kill".into();
    }
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

/// The supervisor thread: owns the worker join handles, sleeps on the
/// crash-report condvar (with a 100 ms liveness tick), and recovers every
/// reported death. On shutdown it joins the workers and handles any crash
/// that raced the close with a final no-respawn recovery, so even a
/// worker dying mid-shutdown strands nothing.
fn supervisor_loop(inner: Arc<Inner>, handles: Vec<JoinHandle<()>>) {
    let mut handles: Vec<Option<JoinHandle<()>>> = handles.into_iter().map(Some).collect();
    loop {
        let (reports, stop) = {
            let mut guard = inner
                .supervision
                .crashed
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if guard.is_empty() && !inner.supervision.stop.load(Ordering::Acquire) {
                guard = inner
                    .supervision
                    .signal
                    .wait_timeout(guard, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
            }
            (
                std::mem::take(&mut *guard),
                inner.supervision.stop.load(Ordering::Acquire),
            )
        };
        for report in reports {
            let id = report.id;
            if let Some(handle) = handles[id].take() {
                // The thread pushed its report as its last act; the join
                // is immediate.
                let _ = handle.join();
            }
            if let Some(seed) = recover_worker(&inner, report, !stop) {
                handles[id] = Some(spawn_worker(inner.clone(), seed));
            }
        }
        if stop {
            for handle in handles.iter_mut().filter_map(|h| h.take()) {
                let _ = handle.join();
            }
            // A worker that crashed while draining its closed mailbox
            // filed a report after the sweep above: recover (abort and
            // reply) without respawning.
            let late = std::mem::take(
                &mut *inner
                    .supervision
                    .crashed
                    .lock()
                    .unwrap_or_else(|e| e.into_inner()),
            );
            for report in late {
                let _ = recover_worker(&inner, report, false);
            }
            break;
        }
        // Silent-death backstop: a worker thread that exited without a
        // crash report and without its mailbox being closed lost its
        // state (nothing to salvage) — respawn it empty so the partition
        // at least serves again; straddling transactions resolve through
        // their lock timeouts.
        for (id, slot) in handles.iter_mut().enumerate() {
            let finished = slot.as_ref().is_some_and(|h| h.is_finished());
            if !finished || inner.mailboxes[id].is_closed() {
                continue;
            }
            let reported = inner
                .supervision
                .crashed
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .any(|r| r.id == id);
            if reported {
                continue; // its crash report is queued; next iteration handles it
            }
            if let Some(handle) = slot.take() {
                let _ = handle.join();
            }
            let report = CrashReport {
                id,
                state: Box::new(WorkerState::new(
                    id,
                    inner.config.workers,
                    inner.trace.clone(),
                )),
                panic_msg: "worker thread exited silently".into(),
                died_at: Instant::now(),
            };
            if let Some(seed) = recover_worker(&inner, report, true) {
                *slot = Some(spawn_worker(inner.clone(), seed));
            }
        }
    }
}

/// Rebuilds a crashed partition worker's state and aborts — retryably —
/// every in-flight transaction that touched the partition. Runs on the
/// supervisor thread while every *other* partition keeps serving; the
/// dead partition's own mailbox stays open the whole time, so clients
/// keep enqueueing (bounded by admission) and nothing sent during the
/// pause is lost.
///
/// The recovery protocol, in order:
///
/// 1. Deliver the dead worker's unflushed outbox (empty when the kill
///    landed at the dequeue point; a panic mid-report may leave messages
///    whose loss would strand other partitions' transactions).
/// 2. Salvage the local lock table with `take_all` and **doom** every
///    holder found through the registry. The salvaged entries seed the
///    fresh table (`absorb`) instead of being dropped: rebuilding empty
///    is only sound once the straddling transactions have aborted, and
///    seeding closes the window in between — a fresh action cannot
///    acquire a key whose doomed writer's data is still uncommitted. The
///    doomed transactions' abort finalizes broadcast `Finish` messages
///    that release the seeded entries through the normal path.
/// 3. Resolve the interrupted-report stack (engine-bug panics only; see
///    [`WorkerState::executing`]): unreported slots get a synthesized
///    `WorkerUnavailable` report so their RVPs always join; reported but
///    unfinalized transactions are salvage-finalized.
/// 4. Abort every salvaged priority-lane, parked, and barrier-held
///    envelope with `WorkerUnavailable` — they belong to transactions
///    already inside the engine whose partition-local context died.
/// 5. Re-admit the salvaged **fresh** backlog (phase-1 work that never
///    started; its transactions lost nothing) unless doomed.
/// 6. Probe every doomed transaction's involved partitions so parked
///    siblings abort *now* — the orphan reaper — instead of waiting out
///    `lock_timeout` on a rendezvous that can never join.
///
/// Returns the seeded state for the replacement worker, or `None` when
/// `respawn` is false (engine shutting down) — then the closed mailbox is
/// drained and aborted here instead, exactly like a worker's own
/// shutdown tail.
fn recover_worker(inner: &Arc<Inner>, crash: CrashReport, respawn: bool) -> Option<WorkerState> {
    let CrashReport {
        id,
        state,
        panic_msg,
        died_at,
    } = crash;
    let mut dead = *state;
    let mut fresh = WorkerState::new(id, inner.config.workers, inner.trace.clone());
    let mut doomed: Vec<Arc<TxnCtx>> = Vec::new();
    fn doom_ctx(ctx: &Arc<TxnCtx>, doomed: &mut Vec<Arc<TxnCtx>>) {
        if !ctx.is_doomed() {
            ctx.doom();
            doomed.push(ctx.clone());
        }
    }
    // 1. Unflushed outbox.
    flush_outbox(inner, &mut dead);
    // 2. Lock-table salvage.
    let moved = dead.locks.take_all();
    for entry in &moved {
        for &reader in &entry.readers {
            if let Some(ctx) = inner.registry.get(reader) {
                doom_ctx(&ctx, &mut doomed);
            }
        }
        if let Some(writer) = entry.writer {
            if let Some(ctx) = inner.registry.get(writer) {
                doom_ctx(&ctx, &mut doomed);
            }
        }
    }
    if !moved.is_empty() {
        fresh.locks.absorb(moved);
    }
    // 3. Interrupted reports, innermost first.
    let unavailable =
        || StorageError::WorkerUnavailable(format!("partition worker {id} died: {panic_msg}"));
    for exec in dead.executing.drain(..).rev() {
        doom_ctx(&exec.txn, &mut doomed);
        if exec.reported {
            salvage_finalize(inner, &exec.txn, unavailable());
        } else {
            report(
                inner,
                &mut fresh,
                &exec.txn,
                &exec.rvp,
                exec.slot,
                Err(unavailable()),
            );
        }
    }
    // 4. Queued later-phase work, parked actions, barrier holds.
    let mut straddlers: Vec<ActionEnvelope> = Vec::new();
    straddlers.extend(dead.priority.drain(..));
    straddlers.extend(dead.waiting.drain());
    for barrier in &mut dead.barriers {
        straddlers.extend(barrier.held.drain(..));
    }
    for envelope in straddlers {
        doom_ctx(&envelope.txn, &mut doomed);
        complete(inner, &mut fresh, envelope, Err(unavailable()));
    }
    // Keep the (emptied) barriers: their migrations are still in flight
    // and the seal tokens arrive through the live mailbox.
    if respawn {
        fresh.barriers = std::mem::take(&mut dead.barriers);
    }
    // 5. Fresh backlog: phase-1 actions that never started. Their
    // admission slots stay claimed until the new worker pops them.
    for envelope in dead.fresh.drain(..) {
        if envelope.txn.is_doomed() {
            complete(inner, &mut fresh, envelope, Err(unavailable()));
            inner.mailboxes[id].free_fresh_slot();
        } else {
            fresh.fresh.push_back(envelope);
        }
    }
    // 6. Orphan reaper: wake the doomed transactions' parked siblings
    // everywhere they are involved (including this partition — the probe
    // rides the live mailbox to the replacement worker).
    inner
        .counters
        .orphan_aborts
        .fetch_add(doomed.len() as u64, Ordering::Relaxed);
    for ctx in &doomed {
        let involved: Vec<usize> = {
            let involved = ctx.involved.lock();
            involved
                .iter()
                .filter(|(_, keys)| !keys.is_empty())
                .map(|(p, _)| *p)
                .collect()
        };
        for partition in involved {
            fresh.send_later(partition, WorkerMsg::Probe { txn: ctx.txn });
        }
    }
    flush_outbox(inner, &mut fresh);
    if !respawn {
        // Shutting down: no replacement worker will ever drain the (now
        // closed) mailbox — run the shutdown tail here so every admitted
        // message still gets a visible abort.
        let mailbox = &inner.mailboxes[id];
        let mut batch: Vec<WorkerMsg> = Vec::new();
        if mailbox.is_closed() {
            mailbox.drain_closed_into(&mut batch);
        }
        let mut leftovers: Vec<ActionEnvelope> = Vec::new();
        for msg in batch {
            collect_leftover_actions(msg, &mut leftovers);
        }
        let fresh_backlog = fresh.fresh.len();
        leftovers.extend(fresh.fresh.drain(..));
        for _ in 0..fresh_backlog {
            mailbox.free_fresh_slot();
        }
        for envelope in leftovers {
            complete(
                inner,
                &mut fresh,
                envelope,
                Err(StorageError::Aborted("engine is shutting down".into())),
            );
        }
        flush_outbox(inner, &mut fresh);
        export_stats(inner, &mut fresh);
        return None;
    }
    inner
        .counters
        .worker_restarts
        .fetch_add(1, Ordering::Relaxed);
    inner
        .counters
        .restart_pause_us
        .fetch_add(died_at.elapsed().as_micros() as u64, Ordering::Relaxed);
    Some(fresh)
}

/// Best-effort finalize for a transaction whose worker died *after*
/// entering its RVP report but before the post-report handling finished.
/// If the normal finalize never started (the CAS wins here), the
/// transaction is rolled back — unless the storage layer says it already
/// reached a terminal state, which means the dead worker committed it and
/// only the reply was lost: then the client is told `Committed`, because
/// the commit is durable and "no acked commit is ever lost" must also
/// hold for commits that were *about* to be acked. If the CAS loses, a
/// finalize was already in flight and its effects stand.
fn salvage_finalize(inner: &Arc<Inner>, ctx: &Arc<TxnCtx>, reason: StorageError) {
    if !ctx.try_finalize() {
        return;
    }
    let outcome = match inner.db.abort_policy(ctx.txn, DORA_POLICY) {
        Ok(()) => TxnOutcome::Aborted {
            reason: reason.to_string(),
        },
        Err(_) => TxnOutcome::Committed,
    };
    // Release the transaction's locks everywhere it was involved; the
    // pushes ride each partition's live mailbox.
    let remote: Vec<(usize, Vec<(TableId, i64)>)> = {
        let involved = ctx.involved.lock();
        involved
            .iter()
            .filter(|(_, keys)| !keys.is_empty())
            .map(|(p, keys)| (*p, keys.clone()))
            .collect()
    };
    for (partition, keys) in remote {
        let _ = inner.mailboxes[partition].push_priority(WorkerMsg::Finish { txn: ctx.txn, keys });
    }
    match &outcome {
        TxnOutcome::Committed => inner.counters.committed.fetch_add(1, Ordering::Relaxed),
        TxnOutcome::Aborted { .. } => inner.counters.aborted.fetch_add(1, Ordering::Relaxed),
    };
    let _ = ctx.reply.send(outcome);
    inner.registry.remove(ctx.txn);
    inner.active.fetch_sub(1, Ordering::AcqRel);
}

/// Pulls the action envelopes out of a message salvaged from a closed
/// mailbox so their transactions can be aborted visibly.
fn collect_leftover_actions(msg: WorkerMsg, out: &mut Vec<ActionEnvelope>) {
    match msg {
        WorkerMsg::Action(envelope) => out.push(envelope),
        WorkerMsg::Batch(msgs) => {
            for msg in msgs {
                collect_leftover_actions(msg, out);
            }
        }
        // Dropping a migration ticket unblocks the coordinator with a
        // `Shutdown` error; a seal token's transferred actions are
        // leftovers to abort like any other stranded envelope.
        WorkerMsg::RangeBegin { .. } | WorkerMsg::RangeDrain { .. } => {}
        WorkerMsg::RangeSealed { parked, .. } => out.extend(parked),
        WorkerMsg::Finish { .. } | WorkerMsg::Probe { .. } | WorkerMsg::Die => {}
    }
}

/// Applies one incoming priority-lane message: finishes release their
/// keys immediately (queueing targeted wakeups), later-phase actions join
/// the priority lane, batches unpack (they are never nested). Migration
/// messages drive the range-handoff protocol (see
/// [`DoraEngine::migrate_range`]).
fn intake(inner: &Arc<Inner>, st: &mut WorkerState, msg: WorkerMsg) {
    match msg {
        WorkerMsg::Action(envelope) => st.priority.push_back(envelope),
        WorkerMsg::Finish { txn, keys } => {
            if st.locks.release_keys_into(txn, &keys, &mut st.pending_wake) > 0 {
                st.stats_dirty = true;
            }
            // Keys a migration moved away release at their current owner.
            if inner.migration_epoch.load(Ordering::Relaxed) > 0 {
                for (owner, keys) in foreign_keys(inner, st.id, &keys) {
                    inner.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                    st.send_later(owner, WorkerMsg::Finish { txn, keys });
                }
            }
        }
        WorkerMsg::Probe { txn } => probe_txn(inner, st, txn),
        // Only a flag: panicking inside a mailbox drain callback would
        // drop the rest of the drained batch. The worker dies at its next
        // dequeue point, after everything delivered alongside the token
        // is safely in the local queues for the supervisor to salvage.
        WorkerMsg::Die => st.die_requested = true,
        WorkerMsg::Batch(msgs) => {
            for msg in msgs {
                intake(inner, st, msg);
            }
        }
        // Destination side, step 1: barricade the incoming range, then ack
        // so the coordinator may carve the routing table.
        WorkerMsg::RangeBegin { ticket } => {
            st.barriers.push(RangeBarrier {
                ticket: ticket.clone(),
                held: VecDeque::new(),
            });
            let _ = ticket.installed.send(());
        }
        // Source side, step 3: extract the range's lock entries and parked
        // actions and ship them. Parked actions whose key set straddles
        // the range boundary cannot move atomically — abort them with a
        // retryable error (their resubmission routes cleanly).
        WorkerMsg::RangeDrain { ticket } => {
            let locks = st.locks.extract_range(ticket.table, ticket.lo, ticket.hi);
            let taken = st.waiting.take_range(ticket.table, ticket.lo, ticket.hi);
            let mut parked = Vec::new();
            let mut straddlers = Vec::new();
            for envelope in taken {
                let fits = envelope
                    .keys
                    .iter()
                    .all(|&(key, _)| key >= ticket.lo && key < ticket.hi);
                if fits {
                    parked.push(envelope);
                } else {
                    straddlers.push(envelope);
                }
            }
            st.stats_dirty = true;
            let dst = ticket.dst;
            let aborted_straddlers = straddlers.len();
            // Seal before completing straddlers: a straddler's abort can
            // emit a Finish for already-extracted keys toward `dst`, and
            // the outbox preserves per-target order — the seal (carrying
            // those entries) must land first or the release would no-op.
            st.send_later(
                dst,
                WorkerMsg::RangeSealed {
                    ticket,
                    locks,
                    parked,
                    aborted_straddlers,
                },
            );
            for envelope in straddlers {
                complete(
                    inner,
                    st,
                    envelope,
                    Err(StorageError::Aborted(
                        "parked action split by a range migration; retry".into(),
                    )),
                );
            }
            sync_deferred(inner, st);
        }
        // Destination side: absorb the transferred lock state, re-admit
        // transferred parked actions then barrier-held arrivals (in that
        // order — the transferred ones parked first at the source), and
        // ack the migration.
        WorkerMsg::RangeSealed {
            ticket,
            locks,
            parked,
            aborted_straddlers,
        } => {
            let moved_locks = locks.len();
            if moved_locks > 0 {
                st.locks.absorb(locks);
                st.stats_dirty = true;
            }
            let moved_parked = parked.len();
            let idx = st
                .barriers
                .iter()
                .position(|b| Arc::ptr_eq(&b.ticket, &ticket));
            let held = match idx {
                Some(i) => st.barriers.remove(i).held,
                None => VecDeque::new(),
            };
            let barrier_held = held.len();
            // Re-admit through `handle_action`, not a direct park: a
            // transferred action whose blocker finished before the
            // extraction must run now — nothing will ever wake it again.
            for envelope in parked {
                handle_action(inner, st, envelope);
            }
            for envelope in held {
                handle_action(inner, st, envelope);
            }
            inner.counters.migrations.fetch_add(1, Ordering::Relaxed);
            let _ = ticket.done.send(SealStats {
                moved_locks,
                moved_parked,
                barrier_held,
                aborted_straddlers,
            });
            sync_deferred(inner, st);
        }
    }
}

/// Groups `keys` the current routing assigns to a partition other than
/// `local` by their owning partition (for post-migration forwarding).
/// Returns an empty vec in the common all-local case without allocating.
fn foreign_keys(
    inner: &Arc<Inner>,
    local: usize,
    keys: &[(TableId, i64)],
) -> Vec<(usize, Vec<(TableId, i64)>)> {
    let workers = inner.config.workers.max(1);
    let mut grouped: Vec<(usize, Vec<(TableId, i64)>)> = Vec::new();
    let routing = inner.routing.read();
    for &(table, key) in keys {
        let owner = routing.owner_of(table, key) % workers;
        if owner == local {
            continue;
        }
        match grouped.iter_mut().find(|(p, _)| *p == owner) {
            Some((_, keys)) => keys.push((table, key)),
            None => grouped.push((owner, vec![(table, key)])),
        }
    }
    grouped
}

/// Delivers the outbox: one priority-lane push per target partition,
/// however many messages this iteration produced for it (same-target
/// sends coalesce into a [`WorkerMsg::Batch`]). A push only fails once
/// the target's mailbox is closed (engine shutdown) — the envelopes it
/// carried are failed at their RVPs so their transactions abort instead
/// of hanging; the loop also covers messages those failures enqueue.
fn flush_outbox(inner: &Arc<Inner>, st: &mut WorkerState) {
    // Chaos hook: an armed plan may stall every Nth non-empty flush,
    // simulating slow cross-partition delivery.
    #[cfg(any(test, feature = "chaos"))]
    if !st.outbox_dirty.is_empty() {
        let delay = inner
            .chaos
            .read()
            .as_ref()
            .and_then(|chaos| chaos.delivery_delay());
        if let Some(delay) = delay {
            std::thread::sleep(delay);
        }
    }
    while let Some(partition) = st.outbox_dirty.pop() {
        let mut msgs = std::mem::take(&mut st.outbox[partition]);
        let batched = msgs.len() as u64;
        let msg = if msgs.len() == 1 {
            msgs.pop().expect("one message")
        } else {
            WorkerMsg::Batch(msgs)
        };
        // Counted before the push so the increments are ordered before
        // the message's effects (an observer who saw the delivered work
        // also sees them); a push rejected by a closed mailbox is not
        // coalescing traffic the engine paid for, so the rare shutdown
        // failure path takes the counts back out.
        let counters = &inner.partitions[st.id];
        counters.outbox_msgs.fetch_add(batched, Ordering::Relaxed);
        counters.outbox_pushes.fetch_add(1, Ordering::Relaxed);
        if let Err(err) = inner.mailboxes[partition].push_priority(msg) {
            counters.outbox_msgs.fetch_sub(batched, Ordering::Relaxed);
            counters.outbox_pushes.fetch_sub(1, Ordering::Relaxed);
            let mut dead = Vec::new();
            collect_leftover_actions(err.into_inner(), &mut dead);
            let reason =
                StorageError::WorkerUnavailable(format!("partition worker {partition} is gone"));
            for envelope in dead {
                complete(inner, st, envelope, Err(reason.clone()));
            }
        }
    }
}

/// Wakes parked actions whose keys were released — and only those: every
/// other parked action stays untouched, which is the wait list's entire
/// win over the old full-rescan (`rescans_avoided` counts it).
///
/// Running a woken action can finish its transaction and release more
/// keys on this worker; the loop drains those cascades too.
fn drain_wakeups(inner: &Arc<Inner>, st: &mut WorkerState) {
    // The common case — keys released with nothing parked (every
    // uncontended transaction) — must not churn allocations: `clear`
    // keeps the buffer for the next release, where `take` would throw it
    // away once per transaction.
    if st.waiting.is_empty() {
        st.pending_wake.clear();
        return;
    }
    while !st.pending_wake.is_empty() {
        // Swap this round's keys into the scratch buffer; releases the
        // woken actions produce accumulate in the (emptied) pending
        // buffer for the next round. Both allocations survive the whole
        // cascade and the next transaction — nothing is reallocated.
        std::mem::swap(&mut st.pending_wake, &mut st.wake_scratch);
        st.pending_wake.clear();
        let parked_before = st.waiting.len() as u64;
        if parked_before == 0 {
            st.wake_scratch.clear();
            return;
        }
        let woken = st.waiting.candidates(&st.wake_scratch);
        let counters = &inner.partitions[st.id];
        counters
            .wakeups
            .fetch_add(woken.len() as u64, Ordering::Relaxed);
        counters
            .rescans_avoided
            .fetch_add(parked_before - woken.len() as u64, Ordering::Relaxed);
        for (seq, envelope) in woken {
            if let Some(envelope) = try_run(inner, st, seq, envelope) {
                // Still blocked: back to the wait list under its original
                // sequence number, keeping its place in the fairness
                // order.
                st.waiting.park_at(seq, envelope);
            }
        }
        st.wake_scratch.clear();
    }
}

/// Aborts (or, if their locks freed up at the last moment, runs) parked
/// actions whose deferral outlived the lock timeout.
fn sweep_expired(inner: &Arc<Inner>, st: &mut WorkerState) {
    let now = Instant::now();
    let expired = st.waiting.expired(inner.config.lock_timeout, now);
    for (seq, envelope) in expired {
        if let Some(envelope) = try_run(inner, st, seq, envelope) {
            st.waiting.park_at(seq, envelope);
        }
    }
}

/// Attempts to run one action: skip it when a sibling already failed,
/// execute it when its local locks are grantable and no earlier-parked
/// conflicting action is waiting, abort its transaction when it outlived
/// the lock timeout. Returns the envelope back when the action must stay
/// parked. `seq` is the action's position in the fairness order
/// ([`FRESH_SEQ`] for actions not parked yet).
#[must_use]
fn try_run(
    inner: &Arc<Inner>,
    st: &mut WorkerState,
    seq: u64,
    envelope: ActionEnvelope,
) -> Option<ActionEnvelope> {
    // A sibling action already failed: the transaction will abort, don't
    // run (or wait for locks on) work whose effects would only be undone.
    if envelope.rvp.failed() {
        wake_successors(st, seq, &envelope);
        complete(
            inner,
            st,
            envelope,
            Err(StorageError::Aborted("sibling action failed".into())),
        );
        return None;
    }
    // The supervisor doomed this transaction: a partition worker holding
    // part of its state died. Abort retryably instead of executing on a
    // transaction whose context is gone.
    if envelope.txn.is_doomed() {
        wake_successors(st, seq, &envelope);
        complete(
            inner,
            st,
            envelope,
            Err(StorageError::WorkerUnavailable(
                "transaction straddled a partition worker that died".into(),
            )),
        );
        return None;
    }
    // Any keyed attempt below moves a lock counter (grant or conflict);
    // a keyless secondary probe touches neither lock table nor wait list.
    if !envelope.keys.is_empty() {
        st.stats_dirty = true;
    }
    if !st.waiting.conflicts_with_earlier(seq, &envelope, &st.locks) {
        let requests: Vec<_> = envelope
            .keys
            .iter()
            .map(|&(key, class)| (envelope.table, key, class))
            .collect();
        if st.locks.try_acquire(envelope.txn.txn, &requests) {
            execute(inner, st, envelope);
            return None;
        }
    }
    if envelope.dispatched.elapsed() >= inner.config.lock_timeout {
        wake_successors(st, seq, &envelope);
        let txn = envelope.txn.txn;
        complete(inner, st, envelope, Err(StorageError::LockTimeout(txn)));
        None
    } else {
        Some(envelope)
    }
}

/// A **parked** action leaving the wait list without running (timeout
/// abort, doomed-sibling skip) held no locks, but it may have been the
/// fairness barrier actions behind it queued on — and some of its keys
/// may have no holder at all, so no future release will ever name them.
/// Queue its keys for a wakeup pass so successors are re-examined now
/// instead of stalling until their own timeouts.
fn wake_successors(st: &mut WorkerState, seq: u64, envelope: &ActionEnvelope) {
    if seq == FRESH_SEQ {
        // Never parked: nothing could be queued behind it.
        return;
    }
    st.pending_wake
        .extend(envelope.keys.iter().map(|&(key, _)| (envelope.table, key)));
}

/// Executes one incoming action, parking it in the wait list when its
/// locks are taken or a parked conflicting action is ahead of it.
///
/// Two migration checks come first, both free in the steady state. A
/// barrier hold: while a migration into this partition is in flight,
/// actions for the moving range wait for its seal token. An ownership
/// re-check (only once any migration has ever happened): an action whose
/// keys the current routing assigns to another partition is forwarded
/// there instead of running on stale authority.
fn handle_action(inner: &Arc<Inner>, st: &mut WorkerState, envelope: ActionEnvelope) {
    if !st.barriers.is_empty() {
        let held = st.barriers.iter().position(|b| {
            b.ticket.table == envelope.table
                && envelope
                    .keys
                    .iter()
                    .any(|&(key, _)| key >= b.ticket.lo && key < b.ticket.hi)
        });
        if let Some(idx) = held {
            st.barriers[idx].held.push_back(envelope);
            return;
        }
    }
    if inner.migration_epoch.load(Ordering::Relaxed) > 0 && !envelope.keys.is_empty() {
        let owner = {
            let workers = inner.config.workers.max(1);
            let routing = inner.routing.read();
            let mut owners = envelope
                .keys
                .iter()
                .map(|&(key, _)| routing.owner_of(envelope.table, key) % workers);
            let first = owners.next().expect("keys checked non-empty");
            if owners.all(|o| o == first) {
                Some(first)
            } else {
                None
            }
        };
        match owner {
            Some(owner) if owner == st.id => {}
            Some(owner) => {
                // Routed before a carve, delivered after the seal: hand it
                // to the range's current owner. Involvement must follow so
                // the finish broadcast releases the locks where they will
                // actually be taken.
                envelope
                    .txn
                    .mark_involved(owner, envelope.table, &envelope.keys);
                inner.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                st.send_later(owner, WorkerMsg::Action(envelope));
                return;
            }
            None => {
                // A migration split this action's key set across owners
                // mid-flight; it can no longer run on any single
                // partition's authority. Abort retryably — the
                // resubmission routes per the current table.
                complete(
                    inner,
                    st,
                    envelope,
                    Err(StorageError::Aborted(
                        "routing changed mid-flight: action keys now span partitions".into(),
                    )),
                );
                return;
            }
        }
    }
    if let Some(envelope) = try_run(inner, st, FRESH_SEQ, envelope) {
        inner.counters.deferrals.fetch_add(1, Ordering::Relaxed);
        if envelope.body.is_retryable() {
            // A diverted secondary action found the conflicting writer
            // still holding its key: parked until the finish releases it.
            inner
                .counters
                .secondary_parked
                .fetch_add(1, Ordering::Relaxed);
        }
        st.waiting.park(envelope);
        sync_deferred(inner, st);
    }
}

/// Runs an action body (locks already held) and reports to its RVP — or,
/// when a retryable (secondary) body's validated read observed an
/// in-flight writer, re-routes the action toward the conflicting key's
/// owning partition instead of reporting.
fn execute(inner: &Arc<Inner>, st: &mut WorkerState, mut envelope: ActionEnvelope) {
    let start = Instant::now();
    // A panicking body must not unwind the worker thread: the partition's
    // queue and lock table would die with it, and the transaction would
    // leak — RVP slot never reported, `active` never decremented, locks on
    // other partitions never released. Convert the panic into an abort.
    let result = catch_panic(
        || envelope.body.run(&inner.db, envelope.txn.txn, &st.ctx),
        "action body",
    );
    let elapsed = start.elapsed().as_nanos() as u64;
    let counters = &inner.partitions[st.id];
    counters.executed.fetch_add(1, Ordering::Relaxed);
    counters.busy_ns.fetch_add(elapsed, Ordering::Relaxed);
    inner.counters.actions.fetch_add(1, Ordering::Relaxed);
    if inner.key_sampling.load(Ordering::Relaxed) {
        if let Some(&(key, _)) = envelope.keys.first() {
            *st.key_counts.entry((envelope.table, key)).or_insert(0) += 1;
            st.stats_dirty = true;
        }
    }
    if let Err(StorageError::ReadUncommitted { table, key, .. }) = &result {
        if envelope.body.is_retryable() && !envelope.rvp.failed() {
            let (table, key) = (*table, key.clone());
            match divert_secondary(inner, st, envelope, table, &key) {
                // Re-routed: the action reports after it re-runs.
                Ok(()) => return,
                Err(env) => envelope = env,
            }
        }
    }
    let ActionEnvelope { slot, txn, rvp, .. } = envelope;
    report(inner, st, &txn, &rvp, slot, result);
}

/// Re-routes a secondary action whose validated read hit the in-flight
/// writer of `(table, key)`: the action gains that record's routing key as
/// a shared read intent and is delivered to the key's owning partition,
/// where the normal lock machinery takes over — the writer still holding
/// its local write lock parks the action in the wait list, the writer's
/// finish wakes it, and the (re-runnable) body executes again. Returns the
/// envelope when the conflict cannot be keyed into the routing space or
/// the action already outlived the lock timeout; the caller then reports
/// the read's error and the transaction aborts **visibly** — dirty data is
/// never returned.
fn divert_secondary(
    inner: &Arc<Inner>,
    st: &mut WorkerState,
    mut envelope: ActionEnvelope,
    table: TableId,
    key: &[dora_storage::types::Value],
) -> Result<(), ActionEnvelope> {
    if envelope.dispatched.elapsed() >= inner.config.lock_timeout {
        return Err(envelope);
    }
    let Some(route_key) = secondary_route_key(inner, table, key) else {
        return Err(envelope);
    };
    let partition = inner.routing.read().owner_of(table, route_key) % inner.config.workers.max(1);
    inner
        .counters
        .secondary_retries
        .fetch_add(1, Ordering::Relaxed);
    envelope.table = table;
    envelope.keys = vec![(route_key, LockClass::Read)];
    // The read intent is held (and released by the finish broadcast) like
    // any aligned key: record the involvement before delivery.
    envelope.txn.mark_involved(partition, table, &envelope.keys);
    if partition == st.id {
        // Own partition: take the inline path, bounded exactly like
        // next-phase inline dispatch.
        if st.inline_depth >= INLINE_DISPATCH_DEPTH {
            st.priority.push_back(envelope);
        } else {
            st.inline_depth += 1;
            handle_action(inner, st, envelope);
            st.inline_depth -= 1;
        }
    } else {
        st.send_later(partition, WorkerMsg::Action(envelope));
    }
    Ok(())
}

/// Maps the primary key of a conflicting record to the table's routing-key
/// space: the position of the routing field within the primary key, then
/// the (integer) value there. `None` when the table routes on a non-key
/// column or a non-integer value — such a conflict cannot be parked on and
/// surfaces as a (retryable) abort instead.
///
/// Resolution goes through the storage layer's lock-free catalog snapshot
/// (`table_handle`) — one atomic load and a borrowed schema, where the old
/// path took the catalog read lock and cloned the whole `TableSchema` per
/// diverted action.
fn secondary_route_key(
    inner: &Arc<Inner>,
    table: TableId,
    key: &[dora_storage::types::Value],
) -> Option<i64> {
    let field = inner.routing.read().rule(table)?.field;
    let handle = inner.db.table_handle(table).ok()?;
    let position = handle
        .schema
        .primary_key
        .iter()
        .position(|&col| col == field)?;
    key.get(position)?.as_i64()
}

/// Reports a result for an action that did not execute (skip/timeout).
fn complete(
    inner: &Arc<Inner>,
    st: &mut WorkerState,
    envelope: ActionEnvelope,
    result: Result<Vec<dora_storage::types::Value>, StorageError>,
) {
    let ActionEnvelope { slot, txn, rvp, .. } = envelope;
    report(inner, st, &txn, &rvp, slot, result);
}

/// Runs a piece of user code (action body or phase generator), converting
/// a panic into a transaction-aborting error so worker threads — which own
/// partition queues and lock tables for the engine's whole lifetime —
/// never unwind.
fn catch_panic<T>(
    f: impl FnOnce() -> Result<T, StorageError>,
    what: &str,
) -> Result<T, StorageError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".into());
        Err(StorageError::Internal(format!("{what} panicked: {msg}")))
    })
}

/// Delivers one action result to the RVP; the last reporter runs the
/// rendezvous logic (next phase, or commit/abort) right here on the
/// worker thread.
fn report(
    inner: &Arc<Inner>,
    st: &mut WorkerState,
    txn: &Arc<TxnCtx>,
    rvp: &Arc<Rvp>,
    slot: usize,
    result: Result<Vec<dora_storage::types::Value>, StorageError>,
) {
    // Crash bookkeeping: if this worker dies anywhere between here and
    // the end of the function (engine-bug panic — deliberate kills never
    // land mid-report), the supervisor finds the entry on the stack and
    // either reports the slot itself (`reported == false`) or
    // salvage-finalizes the transaction (`reported == true`). The flag
    // flips *before* `Rvp::report` runs: a slot must never be reported
    // twice, and an entered-but-interrupted report counts as delivered —
    // the rendezvous then resolves through salvage, not a re-report.
    st.executing.push(ExecutingAction {
        txn: txn.clone(),
        rvp: rvp.clone(),
        slot,
        reported: false,
    });
    let failed_now = result.is_err();
    st.executing.last_mut().expect("just pushed").reported = true;
    match rvp.report(slot, result) {
        PhaseEnd::NotLast => {
            // The phase just became doomed but siblings are still out.
            // Any of them parked on a lock would otherwise only notice
            // `rvp.failed()` at a key release or its own lock-timeout —
            // up to lock_timeout of needless lock-holding and reply
            // latency. Probe the involved partitions so parked doomed
            // actions complete (abort) immediately.
            if failed_now {
                nudge_doomed(inner, st, txn);
            }
        }
        PhaseEnd::Last { outputs, failure } => {
            if let Some(e) = failure {
                finalize(inner, txn, Some(e), Some(st));
            } else {
                let next = txn.phases.lock().pop_front();
                match next {
                    None => finalize(inner, txn, None, Some(st)),
                    // Generators are user code like action bodies: a panic
                    // must abort the transaction, not unwind (and kill)
                    // the worker.
                    Some(gen) => match catch_panic(|| gen(&outputs), "phase generator") {
                        Ok(specs) => advance(inner, txn, specs, Some(st)),
                        Err(e) => finalize(inner, txn, Some(e), Some(st)),
                    },
                }
            }
        }
    }
    st.executing.pop();
}

/// On the first failure of a still-running phase: re-examine this
/// worker's parked actions of the transaction right away and send every
/// other involved partition a [`WorkerMsg::Probe`] to do the same.
/// Rare path (a phase failed) — one small outbox message per partition.
fn nudge_doomed(inner: &Arc<Inner>, st: &mut WorkerState, ctx: &Arc<TxnCtx>) {
    probe_txn(inner, st, ctx.txn);
    let remote: Vec<usize> = {
        let involved = ctx.involved.lock();
        involved
            .iter()
            .filter(|(p, keys)| *p != st.id && !keys.is_empty())
            .map(|(p, _)| *p)
            .collect()
    };
    for partition in remote {
        st.send_later(partition, WorkerMsg::Probe { txn: ctx.txn });
    }
}

/// Re-examines this worker's parked actions belonging to `txn`: a doomed
/// one (failed RVP) completes immediately — waking its successors — and
/// anything else simply re-parks at its old position.
fn probe_txn(inner: &Arc<Inner>, st: &mut WorkerState, txn: dora_storage::types::TxnId) {
    for (seq, envelope) in st.waiting.take_txn(txn) {
        if let Some(envelope) = try_run(inner, st, seq, envelope) {
            st.waiting.park_at(seq, envelope);
        }
    }
    sync_deferred(inner, st);
}

/// Publishes the worker's private counters into the shared snapshot slots
/// (plain stores by the single owner; readers only snapshot). Called on
/// transitions — a transaction finishing here, the worker going idle,
/// shutdown — instead of every loop iteration.
fn export_stats(inner: &Arc<Inner>, st: &mut WorkerState) {
    st.stats_dirty = false;
    let stats = st.locks.stats();
    let counters = &inner.partitions[st.id];
    counters
        .lock_acquired
        .store(stats.acquired, Ordering::Relaxed);
    counters
        .lock_conflicts
        .store(stats.conflicts, Ordering::Relaxed);
    counters
        .lock_released
        .store(stats.released, Ordering::Relaxed);
    let deferred = st.waiting.len() as u64;
    st.exported_deferred = deferred;
    counters.deferred_depth.store(deferred, Ordering::Relaxed);
    if !st.key_counts.is_empty() {
        let mut shared = inner.key_loads[st.id].lock();
        for (key, count) in st.key_counts.drain() {
            *shared.entry(key).or_insert(0) += count;
        }
    }
}

/// Publishes the deferred depth iff it changed since the last export.
fn sync_deferred(inner: &Arc<Inner>, st: &mut WorkerState) {
    let deferred = st.waiting.len() as u64;
    if deferred != st.exported_deferred {
        st.exported_deferred = deferred;
        inner.partitions[st.id]
            .deferred_depth
            .store(deferred, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local_lock::LockClass;
    use crate::routing::RoutingRule;
    use dora_storage::schema::{ColumnDef, TableSchema};
    use dora_storage::types::{DataType, TableId, Value};

    /// A `counters(id BIGINT, value BIGINT)` table pre-loaded with
    /// `rows` zero-valued rows, plus a 4-partition routing rule over it.
    fn setup(rows: i64, workers: usize) -> (Arc<Database>, TableId, RoutingTable) {
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
        for i in 0..rows {
            db.insert(
                txn,
                t,
                vec![Value::BigInt(i), Value::BigInt(0)],
                DORA_POLICY,
            )
            .unwrap();
        }
        db.commit(txn).unwrap();
        let mut routing = RoutingTable::new();
        routing.set_rule(RoutingRule::uniform(
            t,
            0,
            0,
            rows.max(1) - 1,
            workers,
            workers,
        ));
        (db, t, routing)
    }

    fn engine(db: Arc<Database>, routing: RoutingTable, workers: usize) -> DoraEngine {
        DoraEngine::new(
            db,
            routing,
            DoraEngineConfig {
                workers,
                lock_timeout: Duration::from_millis(200),
                ..Default::default()
            },
        )
    }

    fn increment(t: TableId, id: i64) -> FlowGraph {
        FlowGraph::new(
            "Increment",
            vec![ActionSpec::write(t, id, move |db, txn, ctx| {
                ctx.record(t, id, true);
                let row = db
                    .get(txn, t, &[Value::BigInt(id)], DORA_POLICY)?
                    .ok_or(StorageError::NotFound)?;
                let v = row[1].as_i64().unwrap();
                db.update(
                    txn,
                    t,
                    &[Value::BigInt(id)],
                    &[(1, Value::BigInt(v + 1))],
                    DORA_POLICY,
                )?;
                Ok(vec![])
            })],
        )
    }

    fn read_value(db: &Database, t: TableId, id: i64) -> i64 {
        let txn = db.begin();
        let row = db
            .get(txn, t, &[Value::BigInt(id)], DORA_POLICY)
            .unwrap()
            .unwrap();
        db.commit(txn).unwrap();
        row[1].as_i64().unwrap()
    }

    #[test]
    fn commits_single_partition_transactions() {
        let (db, t, routing) = setup(16, 4);
        let e = engine(db.clone(), routing, 4);
        for i in 0..32 {
            assert!(e.execute(increment(t, i % 16)).is_committed());
        }
        let stats = e.stats();
        assert_eq!(stats.committed, 32);
        assert_eq!(stats.aborted, 0);
        assert_eq!(stats.actions, 32);
        assert_eq!(read_value(&db, t, 0), 2);
        e.shutdown();
    }

    #[test]
    fn reply_can_be_awaited_on_another_thread_than_the_submitter() {
        // `submit` on one thread, `recv` on others: the reply cell learns
        // who waits when the waiter parks, not when it is created.
        let (db, t, routing) = setup(16, 2);
        let e = engine(db.clone(), routing, 2);
        let pending: Vec<_> = (0..8).map(|i| e.submit(increment(t, i))).collect();
        let waiters: Vec<_> = pending
            .into_iter()
            .map(|rx| std::thread::spawn(move || rx.recv().unwrap().is_committed()))
            .collect();
        assert!(waiters.into_iter().all(|w| w.join().unwrap()));
        assert_eq!((0..8).map(|i| read_value(&db, t, i)).sum::<i64>(), 8);
        e.shutdown();
    }

    #[test]
    fn read_only_transactions_commit_without_touching_the_log() {
        let (db, t, routing) = setup(16, 2);
        let e = engine(db.clone(), routing, 2);
        let before = db.log_stats();
        for i in 0..8 {
            let flow = FlowGraph::new(
                "ReadOnly",
                vec![ActionSpec::read(t, i, move |db, txn, _| {
                    db.get(txn, t, &[Value::BigInt(i)], DORA_POLICY)?
                        .ok_or(StorageError::NotFound)?;
                    Ok(vec![])
                })],
            );
            assert!(e.execute(flow).is_committed());
        }
        let after = db.log_stats();
        // The read-only fast path: no Begin/Commit records, no force.
        assert_eq!(after.appended, before.appended);
        assert_eq!(after.forces, before.forces);
        // A writer still logs and forces.
        assert!(e.execute(increment(t, 0)).is_committed());
        let wrote = db.log_stats();
        assert_eq!(wrote.appended, before.appended + 3);
        assert_eq!(wrote.forces, before.forces + 1);
        e.shutdown();
    }

    #[test]
    fn multi_partition_phase_joins_at_rvp() {
        let (db, t, routing) = setup(16, 4);
        let e = engine(db.clone(), routing, 4);
        // One phase, two actions on different partitions (keys 1 and 13
        // live in partitions 0 and 3 of the uniform 4x4 rule over [0, 15]).
        let flow = FlowGraph::new(
            "TwoPartitionBump",
            vec![
                ActionSpec::write(t, 1, move |db, txn, _| {
                    db.update(
                        txn,
                        t,
                        &[Value::BigInt(1)],
                        &[(1, Value::BigInt(10))],
                        DORA_POLICY,
                    )?;
                    Ok(vec![])
                }),
                ActionSpec::write(t, 13, move |db, txn, _| {
                    db.update(
                        txn,
                        t,
                        &[Value::BigInt(13)],
                        &[(1, Value::BigInt(20))],
                        DORA_POLICY,
                    )?;
                    Ok(vec![])
                }),
            ],
        );
        assert!(e.execute(flow).is_committed());
        assert_eq!(read_value(&db, t, 1), 10);
        assert_eq!(read_value(&db, t, 13), 20);
        e.shutdown();
    }

    #[test]
    fn rvp_carries_outputs_into_the_next_phase() {
        let (db, t, routing) = setup(16, 4);
        let e = engine(db.clone(), routing, 4);
        // Phase 1 reads two counters; phase 2 writes their sum into a third.
        let flow = FlowGraph::new(
            "SumInto",
            vec![
                ActionSpec::read(t, 2, move |db, txn, _| {
                    let row = db.get(txn, t, &[Value::BigInt(2)], DORA_POLICY)?.unwrap();
                    Ok(vec![row[1].clone()])
                }),
                ActionSpec::read(t, 14, move |db, txn, _| {
                    let row = db.get(txn, t, &[Value::BigInt(14)], DORA_POLICY)?.unwrap();
                    Ok(vec![row[1].clone()])
                }),
            ],
        )
        .then(move |outputs| {
            let sum: i64 = outputs.iter().map(|o| o[0].as_i64().unwrap()).sum();
            Ok(vec![ActionSpec::write(t, 5, move |db, txn, _| {
                db.update(
                    txn,
                    t,
                    &[Value::BigInt(5)],
                    &[(1, Value::BigInt(sum + 100))],
                    DORA_POLICY,
                )?;
                Ok(vec![])
            })])
        });
        assert!(e.execute(flow).is_committed());
        assert_eq!(read_value(&db, t, 5), 100);
        e.shutdown();
    }

    #[test]
    fn failed_action_aborts_and_rolls_back_all_partitions() {
        let (db, t, routing) = setup(16, 4);
        let e = engine(db.clone(), routing, 4);
        let flow = FlowGraph::new(
            "HalfBroken",
            vec![
                ActionSpec::write(t, 0, move |db, txn, _| {
                    db.update(
                        txn,
                        t,
                        &[Value::BigInt(0)],
                        &[(1, Value::BigInt(77))],
                        DORA_POLICY,
                    )?;
                    Ok(vec![])
                }),
                ActionSpec::write(t, 15, move |_, _, _| {
                    Err(StorageError::Aborted("business rule".into()))
                }),
            ],
        );
        let outcome = e.execute(flow);
        assert!(!outcome.is_committed(), "{outcome:?}");
        // The update on partition 0 must have been undone.
        assert_eq!(read_value(&db, t, 0), 0);
        assert_eq!(e.stats().aborted, 1);
        e.shutdown();
    }

    #[test]
    fn phase_generator_error_aborts() {
        let (db, t, routing) = setup(16, 4);
        let e = engine(db, routing, 4);
        let flow = FlowGraph::new("BadGen", vec![ActionSpec::read(t, 3, |_, _, _| Ok(vec![]))])
            .then(|_| Err(StorageError::Aborted("generator failed".into())));
        let outcome = e.execute(flow);
        assert!(
            matches!(outcome, TxnOutcome::Aborted { ref reason } if reason.contains("generator"))
        );
        e.shutdown();
    }

    #[test]
    fn empty_flow_graph_commits_immediately() {
        let (db, t, routing) = setup(16, 4);
        let _ = t;
        let e = engine(db, routing, 4);
        assert!(e.execute(FlowGraph::new("Nop", vec![])).is_committed());
        assert_eq!(e.stats().committed, 1);
        e.shutdown();
    }

    #[test]
    fn empty_phase_with_queued_generators_aborts() {
        let (db, t, routing) = setup(16, 4);
        let e = engine(db, routing, 4);
        // An empty first phase followed by a generator is a builder bug:
        // committing would silently skip the generator.
        let never_ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = never_ran.clone();
        let flow = FlowGraph::new("EmptyFirst", vec![]).then(move |_| {
            flag.store(true, Ordering::Relaxed);
            Ok(vec![])
        });
        let outcome = e.execute(flow);
        assert!(
            matches!(outcome, TxnOutcome::Aborted { ref reason } if reason.contains("still queued")),
            "{outcome:?}"
        );
        assert!(!never_ran.load(Ordering::Relaxed));
        // Same rule mid-flow: a generator returning no actions while more
        // generators wait is rejected, not silently committed past them.
        let flow = FlowGraph::new(
            "EmptyMiddle",
            vec![ActionSpec::read(t, 1, |_, _, _| Ok(vec![]))],
        )
        .then(|_| Ok(vec![]))
        .then(|_| Ok(vec![]));
        let outcome = e.execute(flow);
        assert!(
            matches!(outcome, TxnOutcome::Aborted { ref reason } if reason.contains("still queued")),
            "{outcome:?}"
        );
        e.shutdown();
    }

    #[test]
    fn panicking_action_body_aborts_without_killing_the_worker() {
        let (db, t, routing) = setup(16, 4);
        let e = engine(db.clone(), routing, 4);
        let flow = FlowGraph::new(
            "Panics",
            vec![
                ActionSpec::write(t, 1, move |db, txn, _| {
                    db.update(
                        txn,
                        t,
                        &[Value::BigInt(1)],
                        &[(1, Value::BigInt(9))],
                        DORA_POLICY,
                    )?;
                    Ok(vec![])
                }),
                ActionSpec::write(t, 13, |_, _, _| panic!("boom in user code")),
            ],
        );
        let outcome = e.execute(flow);
        assert!(
            matches!(outcome, TxnOutcome::Aborted { ref reason } if reason.contains("panicked")),
            "{outcome:?}"
        );
        // The sibling's write was rolled back and the panicking partition's
        // worker is still alive and serving.
        assert_eq!(read_value(&db, t, 1), 0);
        for i in 0..16 {
            assert!(e.execute(increment(t, i)).is_committed());
        }
        e.shutdown();
    }

    #[test]
    fn panicking_phase_generator_aborts_without_killing_the_worker() {
        let (db, t, routing) = setup(16, 4);
        let e = engine(db.clone(), routing, 4);
        let flow = FlowGraph::new(
            "GenPanics",
            vec![ActionSpec::read(t, 3, |_, _, _| Ok(vec![]))],
        )
        .then(|outputs| {
            // The classic mistake: indexing an output that isn't there.
            let _ = outputs[0][7].clone();
            Ok(vec![])
        });
        let outcome = e.execute(flow);
        assert!(
            matches!(outcome, TxnOutcome::Aborted { ref reason } if reason.contains("panicked")),
            "{outcome:?}"
        );
        // The worker that ran the generator is still alive and serving,
        // and nothing leaked: shutdown drains promptly.
        for i in 0..16 {
            assert!(e.execute(increment(t, i)).is_committed());
        }
        let started = Instant::now();
        e.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "no leaked active txns"
        );
    }

    #[test]
    fn read_upgrade_is_not_trapped_behind_parked_stranger() {
        // Regression: T holds a Read on k; a stranger's Write parks behind
        // it; T's phase-2 Write upgrade must cut past the parked stranger
        // (it can never be granted before T finishes) instead of waiting
        // out the lock timeout.
        let (db, t, routing) = setup(16, 4);
        let e = Arc::new(engine(db.clone(), routing, 4));
        let upgrade = FlowGraph::new(
            "ReadThenUpgrade",
            vec![ActionSpec::read(t, 2, move |db, txn, _| {
                let row = db.get(txn, t, &[Value::BigInt(2)], DORA_POLICY)?.unwrap();
                Ok(vec![row[1].clone()])
            })],
        )
        .then(move |outputs| {
            let v = outputs[0][0].as_i64().unwrap();
            // Give the stranger time to park behind our read lock.
            std::thread::sleep(Duration::from_millis(30));
            Ok(vec![ActionSpec::write(t, 2, move |db, txn, _| {
                db.update(
                    txn,
                    t,
                    &[Value::BigInt(2)],
                    &[(1, Value::BigInt(v + 1))],
                    DORA_POLICY,
                )?;
                Ok(vec![])
            })])
        });
        let stranger = {
            let e = e.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                e.execute(increment(t, 2))
            })
        };
        let started = Instant::now();
        let outcome = e.execute(upgrade);
        assert!(outcome.is_committed(), "{outcome:?}");
        assert!(
            started.elapsed() < Duration::from_millis(150),
            "upgrade must not wait out the lock timeout: {:?}",
            started.elapsed()
        );
        assert!(stranger.join().unwrap().is_committed());
        assert_eq!(read_value(&db, t, 2), 2);
    }

    #[test]
    fn hot_key_increments_serialize_on_owner_partition() {
        let (db, t, routing) = setup(16, 4);
        let e = Arc::new(engine(db.clone(), routing, 4));
        let mut clients = Vec::new();
        for _ in 0..4 {
            let e = e.clone();
            clients.push(std::thread::spawn(move || {
                let mut committed = 0;
                for _ in 0..25 {
                    if e.execute(increment(t, 0)).is_committed() {
                        committed += 1;
                    }
                }
                committed
            }));
        }
        let committed: i64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(
            committed, 100,
            "same-key actions serialize, none should abort"
        );
        assert_eq!(read_value(&db, t, 0), 100);
    }

    #[test]
    fn bypasses_the_centralized_lock_manager() {
        let (db, t, routing) = setup(16, 4);
        let before = db.lock_stats().critical_sections;
        let e = engine(db.clone(), routing, 4);
        for i in 0..20 {
            assert!(e.execute(increment(t, i % 16)).is_committed());
        }
        e.shutdown();
        let after = db.lock_stats().critical_sections;
        assert_eq!(
            after, before,
            "DORA must never enter lock-manager critical sections"
        );
    }

    #[test]
    fn cross_partition_lock_conflicts_time_out_not_hang() {
        let (db, t, routing) = setup(16, 2);
        let e = Arc::new(engine(db.clone(), routing, 2));
        // Stress opposing lock orders: transactions that write (a, b) and
        // (b, a) where a and b live on different partitions. The wait list
        // plus the lock-timeout tick guarantees global progress.
        let mut clients = Vec::new();
        for c in 0..2 {
            let e = e.clone();
            clients.push(std::thread::spawn(move || {
                let mut done = 0;
                for _ in 0..20 {
                    let (x, y) = if c == 0 { (1, 15) } else { (15, 1) };
                    let flow = FlowGraph::new(
                        "OpposingOrder",
                        vec![
                            ActionSpec::write(t, x, move |db, txn, _| {
                                let row =
                                    db.get(txn, t, &[Value::BigInt(x)], DORA_POLICY)?.unwrap();
                                let v = row[1].as_i64().unwrap();
                                db.update(
                                    txn,
                                    t,
                                    &[Value::BigInt(x)],
                                    &[(1, Value::BigInt(v + 1))],
                                    DORA_POLICY,
                                )?;
                                Ok(vec![])
                            }),
                            ActionSpec::write(t, y, move |db, txn, _| {
                                let row =
                                    db.get(txn, t, &[Value::BigInt(y)], DORA_POLICY)?.unwrap();
                                let v = row[1].as_i64().unwrap();
                                db.update(
                                    txn,
                                    t,
                                    &[Value::BigInt(y)],
                                    &[(1, Value::BigInt(v + 1))],
                                    DORA_POLICY,
                                )?;
                                Ok(vec![])
                            }),
                        ],
                    );
                    if e.execute(flow).is_committed() {
                        done += 1;
                    }
                }
                done
            }));
        }
        let committed: i64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        // Both keys were incremented once per committed transaction; the
        // database state must agree exactly with the commit count.
        assert_eq!(
            read_value(&db, t, 1) + read_value(&db, t, 15),
            committed * 2
        );
        assert!(committed > 0, "at least some transactions must get through");
    }

    #[test]
    fn access_trace_shows_thread_to_data_affinity() {
        let (db, t, routing) = setup(16, 4);
        let e = engine(db, routing, 4);
        e.trace().set_enabled(true);
        let pending: Vec<_> = (0..64).map(|i| e.submit(increment(t, i % 16))).collect();
        for p in pending {
            assert!(p.recv().unwrap().is_committed());
        }
        let events = e.trace().snapshot();
        assert_eq!(events.len(), 64);
        // Thread-to-data: a given key is only ever touched by one worker.
        use std::collections::HashMap;
        let mut owner: HashMap<i64, usize> = HashMap::new();
        for ev in &events {
            let prev = owner.insert(ev.key, ev.worker);
            if let Some(prev) = prev {
                assert_eq!(prev, ev.worker, "key {} touched by two workers", ev.key);
            }
        }
        e.shutdown();
    }

    #[test]
    fn secondary_actions_run_without_local_locks() {
        let (db, t, routing) = setup(16, 4);
        let e = engine(db.clone(), routing, 4);
        // A read-only probe not aligned with the routing field.
        let flow = FlowGraph::new(
            "ScanAll",
            vec![ActionSpec::secondary(t, move |db, txn, _| {
                let rows = db.primary_range(
                    txn,
                    t,
                    &[Value::BigInt(0)],
                    &[Value::BigInt(15)],
                    DORA_POLICY,
                )?;
                Ok(vec![Value::BigInt(rows.len() as i64)])
            })],
        );
        assert!(e.execute(flow).is_committed());
        assert_eq!(e.stats().secondary, 1);
        e.shutdown();
    }

    #[test]
    fn secondary_validated_read_parks_until_writer_finishes_never_dirty() {
        // A holder updates key 0 (uncommitted, local write lock held) and
        // wedges. A secondary auditor's validated read must reject the
        // dirty value, divert to key 0's owning partition, park behind the
        // writer's lock, and — once the holder ABORTS and undo restores the
        // original value — re-run and observe 0. The dirty 777 must never
        // surface.
        let (db, t, routing) = setup(16, 2);
        let e = DoraEngine::new(
            db.clone(),
            routing,
            DoraEngineConfig {
                workers: 2,
                lock_timeout: Duration::from_secs(5),
                ..Default::default()
            },
        );
        // The dirty update happens on partition 0 (key 0) and RETURNS, so
        // worker 0 stays free to park the diverted audit; the transaction
        // is kept in flight (write lock on key 0 held) by a sibling action
        // wedged on partition 1, whose eventual failure aborts the txn.
        let (release_tx, release_rx) = crossbeam_channel::bounded::<()>(1);
        let (ready_tx, ready_rx) = crossbeam_channel::bounded::<()>(1);
        let holder = e.submit(FlowGraph::new(
            "DirtyWriterThatAborts",
            vec![
                ActionSpec::write(t, 0, move |db, txn, _| {
                    db.update(
                        txn,
                        t,
                        &[Value::BigInt(0)],
                        &[(1, Value::BigInt(777))],
                        DORA_POLICY,
                    )?;
                    let _ = ready_tx.send(());
                    Ok(vec![])
                }),
                ActionSpec::write(t, 8, move |_, _, _| {
                    let _ = release_rx.recv();
                    Err(StorageError::Aborted("writer changes its mind".into()))
                }),
            ],
        ));
        ready_rx.recv_timeout(Duration::from_secs(5)).unwrap();

        let audit = e.submit(
            FlowGraph::new(
                "Audit",
                vec![ActionSpec::secondary(t, move |db, txn, _| {
                    let row = db
                        .read_validated(txn, t, &[Value::BigInt(0)], DORA_POLICY)?
                        .ok_or(StorageError::NotFound)?;
                    Ok(vec![row[1].clone()])
                })],
            )
            .then(|outputs| {
                let seen = outputs[0][0].as_i64().unwrap();
                if seen == 0 {
                    Ok(vec![])
                } else {
                    Err(StorageError::Internal(format!(
                        "secondary read observed dirty value {seen}"
                    )))
                }
            }),
        );
        // The audit must divert and park behind the holder's write lock.
        let deadline = Instant::now() + Duration::from_secs(5);
        while e.stats().secondary_parked < 1 {
            assert!(Instant::now() < deadline, "audit never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(e.stats().secondary_retries >= 1);
        assert!(
            audit.try_recv().is_err(),
            "audit must wait for the writer, not reply"
        );
        release_tx.send(()).unwrap();
        assert!(!holder.recv().unwrap().is_committed());
        let outcome = audit.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(outcome.is_committed(), "{outcome:?}");
        assert_eq!(e.stats().secondary, 1);
        e.shutdown();
    }

    #[test]
    fn secondary_read_blocked_past_lock_timeout_aborts_visibly() {
        // The writer never finishes within the lock timeout: the parked
        // audit must abort with a retryable error — dirty data is never
        // the fallback.
        let (db, t, routing) = setup(16, 2);
        let e = engine(db, routing, 2); // 200ms lock timeout
                                        // As above: the uncommitted write lands on partition 0 and the
                                        // transaction is pinned in flight by a wedged sibling on partition
                                        // 1, leaving worker 0 free to park (and expire) the audit.
        let (release_tx, release_rx) = crossbeam_channel::bounded::<()>(1);
        let (ready_tx, ready_rx) = crossbeam_channel::bounded::<()>(1);
        let holder = e.submit(FlowGraph::new(
            "SlowWriter",
            vec![
                ActionSpec::write(t, 3, move |db, txn, _| {
                    db.update(
                        txn,
                        t,
                        &[Value::BigInt(3)],
                        &[(1, Value::BigInt(999))],
                        DORA_POLICY,
                    )?;
                    let _ = ready_tx.send(());
                    Ok(vec![])
                }),
                ActionSpec::write(t, 8, move |_, _, _| {
                    let _ = release_rx.recv();
                    Ok(vec![])
                }),
            ],
        ));
        ready_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let outcome = e.execute(FlowGraph::new(
            "Audit",
            vec![ActionSpec::secondary(t, move |db, txn, _| {
                db.read_validated(txn, t, &[Value::BigInt(3)], DORA_POLICY)?;
                Ok(vec![])
            })],
        ));
        assert!(!outcome.is_committed(), "{outcome:?}");
        release_tx.send(()).unwrap();
        assert!(holder.recv().unwrap().is_committed());
        e.shutdown();
    }

    #[test]
    fn secondary_multi_record_read_is_one_consistent_snapshot() {
        // Writers keep moving value between keys 2 and 13 (different
        // partitions) while secondary audits sum both through
        // read_many_validated: every committed audit must observe the
        // conserved total.
        let (db, t, routing) = setup(16, 4);
        let init = db.begin();
        db.update(
            init,
            t,
            &[Value::BigInt(2)],
            &[(1, Value::BigInt(100))],
            DORA_POLICY,
        )
        .unwrap();
        db.commit(init).unwrap();
        let e = Arc::new(engine(db.clone(), routing, 4));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let e = e.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let flow = FlowGraph::new(
                        "Move",
                        vec![
                            ActionSpec::write(t, 2, move |db, txn, _| {
                                let v = db.get(txn, t, &[Value::BigInt(2)], DORA_POLICY)?.unwrap()
                                    [1]
                                .as_i64()
                                .unwrap();
                                db.update(
                                    txn,
                                    t,
                                    &[Value::BigInt(2)],
                                    &[(1, Value::BigInt(v - 1))],
                                    DORA_POLICY,
                                )?;
                                Ok(vec![])
                            }),
                            ActionSpec::write(t, 13, move |db, txn, _| {
                                let v = db.get(txn, t, &[Value::BigInt(13)], DORA_POLICY)?.unwrap()
                                    [1]
                                .as_i64()
                                .unwrap();
                                db.update(
                                    txn,
                                    t,
                                    &[Value::BigInt(13)],
                                    &[(1, Value::BigInt(v + 1))],
                                    DORA_POLICY,
                                )?;
                                Ok(vec![])
                            }),
                        ],
                    );
                    let _ = e.execute(flow);
                }
            })
        };
        let mut audited = 0;
        for _ in 0..50 {
            let flow = FlowGraph::new(
                "SumAudit",
                vec![ActionSpec::secondary(t, move |db, txn, _| {
                    let keys = vec![vec![Value::BigInt(2)], vec![Value::BigInt(13)]];
                    let rows = db.read_many_validated(txn, t, &keys, DORA_POLICY)?;
                    let sum: i64 = rows
                        .iter()
                        .map(|r| r.as_ref().unwrap()[1].as_i64().unwrap())
                        .sum();
                    if sum != 100 {
                        return Err(StorageError::Internal(format!(
                            "torn secondary snapshot: sum {sum}"
                        )));
                    }
                    Ok(vec![])
                })],
            );
            match e.execute(flow) {
                TxnOutcome::Committed => audited += 1,
                TxnOutcome::Aborted { reason } => {
                    assert!(
                        !reason.contains("torn"),
                        "audit observed a torn snapshot: {reason}"
                    );
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert!(audited > 0, "no audit ever committed");
    }

    #[test]
    fn shutdown_finishes_in_flight_work_and_rejects_new() {
        let (db, t, routing) = setup(16, 4);
        let e = engine(db.clone(), routing, 4);
        let replies: Vec<_> = (0..20).map(|i| e.submit(increment(t, i % 16))).collect();
        e.shutdown();
        for r in replies {
            assert!(r.recv().unwrap().is_committed());
        }
        let total: i64 = (0..16).map(|i| read_value(&db, t, i)).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let (db, t, routing) = setup(4, 2);
        let e = engine(db.clone(), routing, 2);
        e.shutdown();
        // The engine object is consumed by shutdown; build a second engine,
        // flip it to non-accepting via its own shutdown path, and verify a
        // dropped engine rejects cleanly through `execute`'s fallback.
        let e2 = engine(db, RoutingTable::new(), 2);
        e2.inner.accepting.store(false, Ordering::Release);
        let outcome = e2.execute(increment(t, 0));
        assert!(
            matches!(outcome, TxnOutcome::Aborted { ref reason } if reason.contains("not accepting"))
        );
    }

    #[test]
    fn migrate_range_moves_ownership_for_new_transactions() {
        let (db, t, routing) = setup(16, 2);
        let e = engine(db.clone(), routing, 2);
        assert_eq!(e.routing().owner_of(t, 12) % 2, 1);
        let report = e.migrate_range(t, 8, 16, 0).unwrap();
        assert_eq!((report.from, report.to), (1, 0));
        assert_eq!(report.moved_locks, 0);
        assert_eq!(report.moved_parked, 0);
        assert_eq!(e.routing().owner_of(t, 12) % 2, 0);
        assert!(e.execute(increment(t, 12)).is_committed());
        let stats = e.stats();
        assert_eq!(stats.migrations, 1);
        // The post-migration increment ran on the new owner.
        assert_eq!(stats.workers[0].executed, 1);
        assert_eq!(stats.workers[1].executed, 0);
        e.shutdown();
        assert_eq!(read_value(&db, t, 12), 1);
    }

    #[test]
    fn migrate_range_rejects_invalid_requests() {
        let (db, t, routing) = setup(16, 4);
        let e = engine(db, routing, 4);
        assert_eq!(e.migrate_range(t, 5, 5, 1), Err(MigrateError::EmptyRange));
        assert_eq!(
            e.migrate_range(t, 0, 4, 9),
            Err(MigrateError::InvalidDestination {
                dest: 9,
                workers: 4
            })
        );
        assert_eq!(e.migrate_range(t, 0, 16, 1), Err(MigrateError::SpansOwners));
        let unrouted: TableId = t + 99;
        assert_eq!(
            e.migrate_range(unrouted, 0, 4, 1),
            Err(MigrateError::UnroutedTable(unrouted))
        );
        // Migrating a range onto its current owner is a no-op, not a
        // counted migration.
        let report = e.migrate_range(t, 0, 4, 0).unwrap();
        assert_eq!((report.from, report.to), (0, 0));
        assert_eq!(e.stats().migrations, 0);
        e.shutdown();
    }

    #[test]
    fn key_sampling_feeds_load_snapshot_and_coalesce_merges_ranges() {
        let (db, t, routing) = setup(16, 2);
        let e = engine(db, routing, 2);
        e.set_key_sampling(true);
        for _ in 0..5 {
            assert!(e.execute(increment(t, 3)).is_committed());
        }
        assert!(e.execute(increment(t, 9)).is_committed());
        // Worker-local samples flush on stats export (a transition the
        // finalize above triggers), so the snapshot catches up promptly.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let loads = e.key_load_snapshot();
            if loads.get(&(t, 3)) == Some(&5) && loads.get(&(t, 9)) == Some(&1) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "samples never flushed: {loads:?}"
            );
            std::thread::yield_now();
        }
        // Migrations fragment the rule; coalesce folds same-owner runs
        // back together without moving any key.
        e.migrate_range(t, 0, 4, 1).unwrap();
        e.migrate_range(t, 4, 8, 1).unwrap();
        assert!(e.routing().rule(t).unwrap().owners.len() >= 3);
        assert!(e.coalesce_routing(t) >= 2);
        // All loaded keys route to partition 1 now; only the phantom
        // below-range interval still points at partition 0.
        assert_eq!(e.routing().rule(t).unwrap().owners, vec![0, 1]);
        assert_eq!(e.routing().owner_of(t, 0) % 2, 1);
        assert_eq!(e.routing().owner_of(t, 15) % 2, 1);
        e.shutdown();
    }

    #[test]
    fn writer_is_not_starved_by_a_reader_stream() {
        let (db, t, routing) = setup(16, 4);
        let e = Arc::new(engine(db.clone(), routing, 4));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // Two clients keep a continuous stream of read transactions on key
        // 1 flowing; without the fairness barrier the shared read lock
        // would never drain and the writer below would abort with a
        // spurious LockTimeout.
        let mut readers = Vec::new();
        for _ in 0..2 {
            let e = e.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let flow = FlowGraph::new(
                        "Read",
                        vec![ActionSpec::read(t, 1, move |db, txn, _| {
                            db.get(txn, t, &[Value::BigInt(1)], DORA_POLICY)?;
                            Ok(vec![])
                        })],
                    );
                    let _ = e.execute(flow);
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(20));
        let started = Instant::now();
        let outcome = e.execute(increment(t, 1));
        let waited = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert!(outcome.is_committed(), "{outcome:?}");
        assert!(
            waited < Duration::from_millis(200),
            "writer should cut ahead of later readers, waited {waited:?}"
        );
        assert_eq!(read_value(&db, t, 1), 1);
    }

    #[test]
    fn range_migrations_preserve_isolation_under_concurrent_load() {
        let (db, t, routing) = setup(16, 4);
        let e = Arc::new(engine(db.clone(), routing, 4));
        // Four clients hammer one key while the "load balancer" keeps
        // moving that key's range between partitions. The quiesce-free
        // handoff must keep isolation intact: the final value equals the
        // number of committed increments — no lost or doubled update.
        let mut clients = Vec::new();
        for _ in 0..4 {
            let e = e.clone();
            clients.push(std::thread::spawn(move || {
                let mut committed = 0i64;
                for _ in 0..25 {
                    if e.execute(increment(t, 7)).is_committed() {
                        committed += 1;
                    }
                }
                committed
            }));
        }
        let balancer = {
            let e = e.clone();
            std::thread::spawn(move || {
                let mut moves = 0u64;
                for round in 0..12u64 {
                    let dest = (round % 4) as usize;
                    let report = e.migrate_range(t, 4, 8, dest).unwrap();
                    if report.from != report.to {
                        moves += 1;
                    }
                    std::thread::yield_now();
                }
                moves
            })
        };
        let committed: i64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        let moves = balancer.join().unwrap();
        assert_eq!(read_value(&db, t, 7), committed);
        assert!(committed > 0, "some increments must land between moves");
        assert!(moves > 0, "the balancer thread never actually migrated");
        assert_eq!(e.stats().migrations, moves);
    }

    #[test]
    fn unaffected_ranges_commit_while_a_migration_is_in_flight() {
        let (db, t, routing) = setup(32, 4);
        let e = Arc::new(engine(db.clone(), routing, 4));
        // Wedge worker 0 (owner of [0,8)) inside an action body so the
        // migration's drain request sits unprocessed in its priority lane:
        // the handoff stays in flight until the body is released.
        let (release_tx, release_rx) = crossbeam_channel::bounded::<()>(1);
        let (ready_tx, ready_rx) = crossbeam_channel::bounded::<()>(1);
        let wedge = e.submit(FlowGraph::new(
            "Wedge",
            vec![ActionSpec::write(t, 0, move |_, _, _| {
                let _ = ready_tx.send(());
                let _ = release_rx.recv();
                Ok(vec![])
            })],
        ));
        ready_rx.recv().unwrap();
        let migration = {
            let e = e.clone();
            std::thread::spawn(move || e.migrate_range(t, 0, 4, 1))
        };
        // Wait for the carve to publish (the barrier is installed first).
        let deadline = Instant::now() + Duration::from_secs(5);
        while e.routing().owner_of(t, 1) % 4 != 1 {
            assert!(Instant::now() < deadline, "carve never published");
            std::thread::yield_now();
        }
        // Quiesce-free: while the migration is in flight, keys outside
        // the moving range — including on the destination partition —
        // commit with no added stall.
        for key in [9, 17, 25, 12] {
            let started = Instant::now();
            assert!(e.execute(increment(t, key)).is_committed());
            assert!(
                started.elapsed() < Duration::from_millis(150),
                "unaffected key {key} stalled during migration: {:?}",
                started.elapsed()
            );
        }
        // A fresh action for the moving range parks behind the barrier
        // and completes once the seal token releases it.
        let parked = e.submit(increment(t, 1));
        release_tx.send(()).unwrap();
        let report = migration.join().unwrap().unwrap();
        assert_eq!((report.from, report.to), (0, 1));
        assert!(parked.recv().unwrap().is_committed());
        assert!(wedge.recv().unwrap().is_committed());
        assert_eq!(read_value(&db, t, 1), 1);
    }

    #[test]
    fn migration_transfers_held_locks_and_parked_actions() {
        let (db, t, routing) = setup(24, 3);
        // Generous lock timeout: the transferred waiter must survive the
        // whole handoff without its park deadline firing.
        let e = DoraEngine::new(
            db.clone(),
            routing,
            DoraEngineConfig {
                workers: 3,
                lock_timeout: Duration::from_secs(5),
                ..Default::default()
            },
        );
        // The holder pins the write lock on key 0 (partition 0) while its
        // second action blocks on partition 2; a waiter then parks on
        // key 0's wait list at partition 0.
        let (holder_rx, release_tx, ready_rx) = holder(&e, t, 0, 16);
        ready_rx.recv().unwrap();
        let waiter = e.submit(increment(t, 0));
        let deadline = Instant::now() + Duration::from_secs(5);
        while e.stats().workers[0].deferred == 0 {
            assert!(Instant::now() < deadline, "waiter never parked");
            std::thread::yield_now();
        }
        let report = e.migrate_range(t, 0, 8, 1).unwrap();
        assert_eq!((report.from, report.to), (0, 1));
        assert!(report.moved_locks >= 1, "{report:?}");
        assert_eq!(report.moved_parked, 1, "{report:?}");
        // Releasing the holder must release the *transferred* lock entry
        // on the new owner (the finish is forwarded there) and wake the
        // transferred waiter.
        release_tx.send(()).unwrap();
        assert!(holder_rx.recv().unwrap().is_committed());
        assert!(waiter.recv().unwrap().is_committed());
        assert_eq!(read_value(&db, t, 0), 1);
        e.shutdown();
    }

    #[test]
    fn per_partition_stats_reflect_work() {
        let (db, t, routing) = setup(16, 4);
        let e = engine(db, routing, 4);
        for i in 0..16 {
            assert!(e.execute(increment(t, i)).is_committed());
        }
        let stats = e.stats();
        assert_eq!(stats.workers.len(), 4);
        assert_eq!(stats.workers.iter().map(|w| w.executed).sum::<u64>(), 16);
        // Uniform keys over a uniform rule: every partition did something.
        assert!(stats.workers.iter().all(|w| w.executed > 0));
        assert!(stats.workers.iter().all(|w| w.locks.acquired > 0));
        e.shutdown();
    }

    /// Parks a transaction's locks on given keys: a two-action phase whose
    /// second action (on the `hold` partition) blocks on a channel until
    /// the test signals it, keeping the first action's locks (on the other
    /// partition) held across messages. Returns `(outcome_rx, release_tx,
    /// ready_rx)`.
    fn holder(
        e: &DoraEngine,
        t: TableId,
        lock_key: i64,
        block_key: i64,
    ) -> (
        oneshot::Receiver<TxnOutcome>,
        crossbeam_channel::Sender<()>,
        crossbeam_channel::Receiver<()>,
    ) {
        let (release_tx, release_rx) = crossbeam_channel::bounded::<()>(1);
        let (ready_tx, ready_rx) = crossbeam_channel::bounded::<()>(1);
        let flow = FlowGraph::new(
            "Holder",
            vec![
                ActionSpec::write(t, lock_key, move |_, _, _| {
                    let _ = ready_tx.send(());
                    Ok(vec![])
                }),
                ActionSpec::write(t, block_key, move |_, _, _| {
                    let _ = release_rx.recv();
                    Ok(vec![])
                }),
            ],
        );
        (e.submit(flow), release_tx, ready_rx)
    }

    #[test]
    fn finish_wakes_only_actions_parked_on_released_keys() {
        // Two workers: keys 0..7 live on partition 0, keys 8..15 on
        // partition 1. Two holder transactions pin write locks on keys 0
        // and 1 of partition 0 (each blocked inside an action on partition
        // 1), and two waiters park behind them. Finishing the first holder
        // must wake ONLY the key-0 waiter — the key-1 waiter stays parked,
        // proving the wait list replaced the full rescan.
        let (db, t, routing) = setup(16, 2);
        let e = engine(db.clone(), routing, 2);
        let (h1_rx, h1_release, h1_ready) = holder(&e, t, 0, 8);
        let (h2_rx, h2_release, h2_ready) = holder(&e, t, 1, 9);
        h1_ready
            .recv_timeout(Duration::from_secs(5))
            .expect("holder 1 locked key 0");
        h2_ready
            .recv_timeout(Duration::from_secs(5))
            .expect("holder 2 locked key 1");

        let waiter_a = e.submit(increment(t, 0));
        let waiter_b = e.submit(increment(t, 1));
        // Both waiters must be parked before any release happens.
        let parked_deadline = Instant::now() + Duration::from_secs(5);
        while e.stats().deferrals < 2 {
            assert!(Instant::now() < parked_deadline, "waiters never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(e.stats().workers[0].wakeups, 0);

        // Finish holder 1: its Finish carries exactly key 0 for partition
        // 0; only waiter A may wake.
        h1_release.send(()).unwrap();
        assert!(h1_rx.recv().unwrap().is_committed());
        assert!(waiter_a
            .recv_timeout(Duration::from_secs(5))
            .expect("waiter A woken by key-0 release")
            .is_committed());
        let w0 = e.stats().workers[0];
        assert_eq!(
            w0.wakeups, 1,
            "exactly one parked action re-tried: the key-0 waiter"
        );
        assert!(
            w0.rescans_avoided >= 1,
            "the key-1 waiter was never re-examined"
        );
        assert!(
            waiter_b.try_recv().is_err(),
            "waiter B must still be parked on key 1"
        );

        // Finish holder 2: now waiter B completes too.
        h2_release.send(()).unwrap();
        assert!(h2_rx.recv().unwrap().is_committed());
        assert!(waiter_b
            .recv_timeout(Duration::from_secs(5))
            .expect("waiter B woken by key-1 release")
            .is_committed());
        assert_eq!(e.stats().workers[0].wakeups, 2);
        assert_eq!(read_value(&db, t, 0), 1);
        assert_eq!(read_value(&db, t, 1), 1);
        e.shutdown();
    }

    #[test]
    fn submit_blocks_under_backpressure_then_succeeds() {
        let (db, t, routing) = setup(4, 1);
        let e = DoraEngine::new(
            db.clone(),
            routing,
            DoraEngineConfig {
                workers: 1,
                lock_timeout: Duration::from_millis(500),
                queue_capacity: 2,
                submit_timeout: Duration::from_secs(10),
                ..Default::default()
            },
        );
        // Each action occupies the single worker for a while, so fresh
        // submissions pile up against the 2-slot admission gate.
        let slow = |t: TableId| {
            FlowGraph::new(
                "Slow",
                vec![ActionSpec::write(t, 0, move |db, txn, _| {
                    std::thread::sleep(Duration::from_millis(30));
                    db.get(txn, t, &[Value::BigInt(0)], DORA_POLICY)?;
                    Ok(vec![])
                })],
            )
        };
        let started = Instant::now();
        let replies: Vec<_> = (0..6).map(|_| e.submit(slow(t))).collect();
        let submit_elapsed = started.elapsed();
        // 6 submissions, 2 admission slots, ~30ms per action: at least the
        // excess beyond (capacity + 1 in flight) must have blocked.
        assert!(
            submit_elapsed >= Duration::from_millis(60),
            "submit never felt back-pressure: {submit_elapsed:?}"
        );
        for r in replies {
            assert!(
                r.recv_timeout(Duration::from_secs(10))
                    .unwrap()
                    .is_committed(),
                "blocked submissions must succeed, not drop"
            );
        }
        e.shutdown();
    }

    #[test]
    fn overloaded_submit_aborts_visibly_after_timeout() {
        let (db, t, routing) = setup(4, 1);
        let e = DoraEngine::new(
            db,
            routing,
            DoraEngineConfig {
                workers: 1,
                lock_timeout: Duration::from_secs(2),
                queue_capacity: 1,
                submit_timeout: Duration::from_millis(50),
                ..Default::default()
            },
        );
        // Wedge the worker inside a body so the gate can never drain.
        let (release_tx, release_rx) = crossbeam_channel::bounded::<()>(1);
        let wedge = e.submit(FlowGraph::new(
            "Wedge",
            vec![ActionSpec::write(t, 0, move |_, _, _| {
                let _ = release_rx.recv();
                Ok(vec![])
            })],
        ));
        // Fill the single admission slot, then one more: that submission
        // must block for ~submit_timeout and come back as a visible abort.
        let _queued = e.submit(increment(t, 1));
        let started = Instant::now();
        let outcome = e.execute(increment(t, 2));
        assert!(
            matches!(outcome, TxnOutcome::Aborted { ref reason } if reason.contains("back-pressure")),
            "{outcome:?}"
        );
        assert!(
            started.elapsed() >= Duration::from_millis(50),
            "rejection must come after blocking, not immediately"
        );
        release_tx.send(()).unwrap();
        assert!(wedge.recv().unwrap().is_committed());
        e.shutdown();
    }

    #[test]
    fn shutdown_drains_a_full_bounded_queue_cleanly() {
        let (db, t, routing) = setup(4, 1);
        let e = DoraEngine::new(
            db.clone(),
            routing,
            DoraEngineConfig {
                workers: 1,
                lock_timeout: Duration::from_millis(500),
                queue_capacity: 2,
                submit_timeout: Duration::from_secs(10),
                ..Default::default()
            },
        );
        let slowish = |t: TableId, id: i64| {
            FlowGraph::new(
                "Slowish",
                vec![ActionSpec::write(t, id, move |db, txn, _| {
                    std::thread::sleep(Duration::from_millis(10));
                    let row = db
                        .get(txn, t, &[Value::BigInt(id)], DORA_POLICY)?
                        .ok_or(StorageError::NotFound)?;
                    let v = row[1].as_i64().unwrap();
                    db.update(
                        txn,
                        t,
                        &[Value::BigInt(id)],
                        &[(1, Value::BigInt(v + 1))],
                        DORA_POLICY,
                    )?;
                    Ok(vec![])
                })],
            )
        };
        // Saturate the bounded queue, then shut down: every admitted
        // transaction must complete (drained, not dropped).
        let replies: Vec<_> = (0..8).map(|i| e.submit(slowish(t, i % 4))).collect();
        e.shutdown();
        for r in replies {
            assert!(r.recv().unwrap().is_committed(), "admitted work must drain");
        }
        let total: i64 = (0..4).map(|i| read_value(&db, t, i)).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn priority_lane_cuts_multi_partition_latency_under_fresh_load() {
        // Partition 0 is flooded with slow fresh actions. A two-phase
        // transaction whose phase 2 lands on partition 0 must ride the
        // priority lane past that backlog instead of queueing behind it.
        let (db, t, routing) = setup(16, 2);
        let e = Arc::new(engine(db.clone(), routing, 2));
        let slow_fill = |t: TableId| {
            FlowGraph::new(
                "Fill",
                vec![ActionSpec::write(t, 2, move |db, txn, _| {
                    std::thread::sleep(Duration::from_millis(5));
                    db.get(txn, t, &[Value::BigInt(2)], DORA_POLICY)?;
                    Ok(vec![])
                })],
            )
        };
        let fillers: Vec<_> = (0..40).map(|_| e.submit(slow_fill(t))).collect();
        // Phase 1 on partition 1 (key 8), phase 2 on partition 0 (key 0).
        let cross = FlowGraph::new(
            "CrossPhase",
            vec![ActionSpec::read(t, 8, move |db, txn, _| {
                db.get(txn, t, &[Value::BigInt(8)], DORA_POLICY)?;
                Ok(vec![])
            })],
        )
        .then(move |_| {
            Ok(vec![ActionSpec::write(t, 0, move |db, txn, _| {
                let row = db.get(txn, t, &[Value::BigInt(0)], DORA_POLICY)?.unwrap();
                let v = row[1].as_i64().unwrap();
                db.update(
                    txn,
                    t,
                    &[Value::BigInt(0)],
                    &[(1, Value::BigInt(v + 1))],
                    DORA_POLICY,
                )?;
                Ok(vec![])
            })])
        });
        let started = Instant::now();
        let outcome = e.execute(cross);
        let waited = started.elapsed();
        assert!(outcome.is_committed(), "{outcome:?}");
        // The backlog needs ~200ms (40 x 5ms) on partition 0; the
        // priority-lane transaction must not wait for it.
        assert!(
            waited < Duration::from_millis(100),
            "phase-2 action should cut ahead of ~200ms of fresh backlog, waited {waited:?}"
        );
        for f in fillers {
            assert!(f.recv().unwrap().is_committed());
        }
        assert_eq!(read_value(&db, t, 0), 1);
    }

    #[test]
    fn aborted_blocker_wakes_successors_parked_on_free_keys() {
        // T2 parks on {key 0 (free), key 1 (held by T1)}; T3 then parks
        // behind T2 on key 0 (fairness barrier). When T2 times out it
        // held nothing — no key release will ever name key 0 — but its
        // departure must still wake T3 promptly, not strand it until its
        // own timeout.
        let (db, t, routing) = setup(16, 2);
        let e = engine(db.clone(), routing, 2);
        let (h_rx, h_release, h_ready) = holder(&e, t, 1, 8);
        h_ready.recv_timeout(Duration::from_secs(5)).unwrap();

        let blocked = e.submit(FlowGraph::new(
            "NeedsBoth",
            vec![ActionSpec::multi(
                t,
                vec![(0, LockClass::Write), (1, LockClass::Write)],
                |_, _, _| Ok(vec![]),
            )],
        ));
        let deadline = Instant::now() + Duration::from_secs(5);
        while e.stats().deferrals < 1 {
            assert!(Instant::now() < deadline, "T2 never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Age T2 so its 200ms lock timeout fires well before T3's would.
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        let successor = e.submit(increment(t, 0));
        let outcome = successor
            .recv_timeout(Duration::from_secs(5))
            .expect("successor resolves");
        let waited = started.elapsed();
        assert!(outcome.is_committed(), "{outcome:?}");
        assert!(
            waited < Duration::from_millis(180),
            "successor must ride the aborted blocker's wakeup (~100ms), \
             not its own timeout (~200ms): waited {waited:?}"
        );
        let blocked_outcome = blocked.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(!blocked_outcome.is_committed(), "{blocked_outcome:?}");
        h_release.send(()).unwrap();
        assert!(h_rx.recv().unwrap().is_committed());
        assert_eq!(read_value(&db, t, 0), 1);
        e.shutdown();
    }

    #[test]
    fn failed_sibling_aborts_parked_actions_promptly() {
        // T's action on partition 0 parks behind a holder's lock; 50ms
        // later T's sibling on partition 2 fails. The failure probe must
        // abort the parked action (and deliver T's reply) right away —
        // not after the parked action's own 200ms lock timeout.
        let (db, t, routing) = setup(24, 3);
        let e = engine(db, routing, 3);
        let (h_rx, h_release, h_ready) = holder(&e, t, 0, 8);
        h_ready.recv_timeout(Duration::from_secs(5)).unwrap();

        let started = Instant::now();
        let doomed = e.submit(FlowGraph::new(
            "DoomedPair",
            vec![
                ActionSpec::write(t, 0, |_, _, _| Ok(vec![])),
                ActionSpec::write(t, 16, |_, _, _| {
                    std::thread::sleep(Duration::from_millis(50));
                    Err(StorageError::Aborted("business rule".into()))
                }),
            ],
        ));
        let outcome = doomed
            .recv_timeout(Duration::from_secs(5))
            .expect("doomed txn resolves");
        let waited = started.elapsed();
        assert!(!outcome.is_committed(), "{outcome:?}");
        assert!(
            waited < Duration::from_millis(150),
            "abort must ride the failure probe (~50ms), not the parked \
             action's lock timeout (~250ms): waited {waited:?}"
        );
        h_release.send(()).unwrap();
        assert!(h_rx.recv().unwrap().is_committed());
        e.shutdown();
    }

    #[test]
    fn admission_failure_probes_parked_siblings_promptly() {
        // The client-thread mirror of the failure probe: T's action on
        // partition 0 parks behind a holder's lock, then T's next slot
        // fails *admission* (partition 1's ring is full) on the client
        // thread. The client must probe the dispatched partitions so the
        // parked action aborts right away — not after its own 2s lock
        // timeout.
        let (db, t, routing) = setup(24, 3);
        let e = DoraEngine::new(
            db,
            routing,
            DoraEngineConfig {
                workers: 3,
                lock_timeout: Duration::from_secs(2),
                queue_capacity: 1,
                submit_timeout: Duration::from_millis(50),
                ..Default::default()
            },
        );
        // Holder keeps key 0 (partition 0) locked while wedging partition
        // 1's worker inside a body; one more submission fills partition
        // 1's single admission slot.
        let (h_rx, h_release, h_ready) = holder(&e, t, 0, 8);
        h_ready.recv_timeout(Duration::from_secs(5)).unwrap();
        let queued = e.submit(increment(t, 9));

        let started = Instant::now();
        let outcome = e.execute(FlowGraph::new(
            "DoomedByAdmission",
            vec![
                ActionSpec::write(t, 0, |_, _, _| Ok(vec![])),
                ActionSpec::write(t, 15, |_, _, _| Ok(vec![])),
            ],
        ));
        let waited = started.elapsed();
        assert!(
            matches!(outcome, TxnOutcome::Aborted { ref reason } if reason.contains("back-pressure")),
            "{outcome:?}"
        );
        assert!(
            waited < Duration::from_millis(700),
            "abort must ride the admission-failure probe (~50ms), not the \
             parked action's 2s lock timeout: waited {waited:?}"
        );
        h_release.send(()).unwrap();
        assert!(h_rx.recv().unwrap().is_committed());
        assert!(queued.recv().unwrap().is_committed());
        e.shutdown();
    }

    #[test]
    fn deep_same_partition_phase_chain_does_not_overflow_the_stack() {
        // Every phase lands on the same single partition, so each next
        // phase is dispatched inline by the RVP terminal — past the depth
        // bound it must detour through the priority lane instead of
        // growing the worker stack once per phase.
        let (db, t, routing) = setup(4, 1);
        let e = engine(db.clone(), routing, 1);
        let phases = 2_000;
        let mut flow = FlowGraph::new(
            "DeepChain",
            vec![ActionSpec::write(t, 0, move |db, txn, _| bump(db, txn, t))],
        );
        for _ in 0..phases {
            flow = flow.then(move |_| {
                Ok(vec![ActionSpec::write(t, 0, move |db, txn, _| {
                    bump(db, txn, t)
                })])
            });
        }
        fn bump(
            db: &Database,
            txn: dora_storage::types::TxnId,
            t: TableId,
        ) -> Result<Vec<Value>, StorageError> {
            let row = db
                .get(txn, t, &[Value::BigInt(0)], DORA_POLICY)?
                .ok_or(StorageError::NotFound)?;
            let v = row[1].as_i64().unwrap();
            db.update(
                txn,
                t,
                &[Value::BigInt(0)],
                &[(1, Value::BigInt(v + 1))],
                DORA_POLICY,
            )?;
            Ok(vec![])
        }
        assert!(e.execute(flow).is_committed());
        assert_eq!(read_value(&db, t, 0), phases as i64 + 1);
        e.shutdown();
    }

    #[test]
    fn same_target_sends_coalesce_into_one_push() {
        // Keys 0..7 live on partition 0, keys 8..15 on partition 1. Phase
        // 1 runs on partition 1; its RVP terminal dispatches a phase 2 of
        // TWO actions, both owned by partition 0 — worker 1's outbox must
        // fold them into a single mailbox push (a `Batch`).
        let (db, t, routing) = setup(16, 2);
        let e = engine(db.clone(), routing, 2);
        let flow = FlowGraph::new(
            "FanOutPhase2",
            vec![ActionSpec::read(t, 8, move |db, txn, _| {
                db.get(txn, t, &[Value::BigInt(8)], DORA_POLICY)?;
                Ok(vec![])
            })],
        )
        .then(move |_| {
            Ok(vec![
                ActionSpec::write(t, 0, move |db, txn, _| {
                    db.update(
                        txn,
                        t,
                        &[Value::BigInt(0)],
                        &[(1, Value::BigInt(1))],
                        DORA_POLICY,
                    )?;
                    Ok(vec![])
                }),
                ActionSpec::write(t, 1, move |db, txn, _| {
                    db.update(
                        txn,
                        t,
                        &[Value::BigInt(1)],
                        &[(1, Value::BigInt(2))],
                        DORA_POLICY,
                    )?;
                    Ok(vec![])
                }),
            ])
        });
        assert!(e.execute(flow).is_committed());
        let w1 = e.stats().workers[1];
        assert_eq!(
            w1.outbox_msgs, 2,
            "worker 1 sent exactly the two phase-2 actions"
        );
        assert_eq!(
            w1.outbox_pushes, 1,
            "both same-target actions must ride one coalesced push"
        );
        // The finish travels the other way: worker 0 ran the terminal RVP
        // and sent partition 1 one Finish for its key. The client reply
        // races worker 0's outbox flush, so poll briefly.
        let deadline = Instant::now() + Duration::from_secs(5);
        let w0 = loop {
            let w0 = e.stats().workers[0];
            if w0.outbox_pushes > 0 || Instant::now() >= deadline {
                break w0;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(w0.outbox_msgs, 1);
        assert_eq!(w0.outbox_pushes, 1);
        assert_eq!(read_value(&db, t, 0), 1);
        assert_eq!(read_value(&db, t, 1), 2);
        e.shutdown();
    }

    #[test]
    fn deferred_depth_exports_on_transitions() {
        let (db, t, routing) = setup(16, 2);
        let e = engine(db, routing, 2);
        let (h_rx, h_release, h_ready) = holder(&e, t, 0, 8);
        h_ready.recv_timeout(Duration::from_secs(5)).unwrap();
        let waiter = e.submit(increment(t, 0));
        let deadline = Instant::now() + Duration::from_secs(5);
        // The park transition must be visible in the exported snapshot.
        while e.stats().workers[0].deferred != 1 {
            assert!(Instant::now() < deadline, "deferred depth never exported");
            std::thread::sleep(Duration::from_millis(1));
        }
        h_release.send(()).unwrap();
        assert!(h_rx.recv().unwrap().is_committed());
        assert!(waiter.recv().unwrap().is_committed());
        // The unpark transition must be visible too.
        let deadline = Instant::now() + Duration::from_secs(5);
        while e.stats().workers[0].deferred != 0 {
            assert!(Instant::now() < deadline, "unpark never exported");
            std::thread::sleep(Duration::from_millis(1));
        }
        e.shutdown();
    }

    /// Blocks until the engine has recorded at least `n` worker restarts.
    fn wait_for_restarts(e: &DoraEngine, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while e.stats().worker_restarts < n {
            assert!(
                Instant::now() < deadline,
                "supervisor never restarted the worker: {:?}",
                e.stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn killed_worker_restarts_and_partition_resumes_serving() {
        let (db, t, routing) = setup(16, 2);
        let e = engine(db.clone(), routing, 2);
        for i in 0..16 {
            assert!(e.execute(increment(t, i)).is_committed());
        }

        assert!(e.kill_worker(0), "worker 0 accepts the kill token");
        wait_for_restarts(&e, 1);

        // The respawned worker serves its partition again, and partition 1
        // was never disturbed.
        let hb_before = e.heartbeats();
        assert_eq!(hb_before.len(), 2);
        for i in 0..16 {
            assert!(e.execute(increment(t, i)).is_committed());
        }
        let hb_after = e.heartbeats();
        assert!(
            hb_after[0] > hb_before[0],
            "replacement worker 0 must be alive and beating"
        );

        let stats = e.stats();
        assert_eq!(stats.chaos_kills, 1);
        assert_eq!(stats.worker_restarts, 1);
        assert!(
            stats.restart_pause_us > 0,
            "restart pause must be measured: {stats:?}"
        );
        assert_eq!(read_value(&db, t, 0), 2);
        e.shutdown();

        // An out-of-range kill target is refused, not UB.
        let (db2, _, routing2) = setup(4, 1);
        let e2 = engine(db2, routing2, 1);
        assert!(!e2.kill_worker(7), "out-of-range id is refused");
        e2.shutdown();
    }

    #[test]
    fn worker_death_aborts_straddling_txns_retryably() {
        // Keys 0..7 live on partition 0, 8..15 on partition 1. The holder
        // locks key 0 on partition 0, then blocks inside a body on
        // partition 1; a waiter parks behind key 0. Killing worker 0 must
        // (a) abort the parked waiter retryably, (b) doom the holder so it
        // aborts retryably when its body finally returns, and (c) leave
        // both partitions serving.
        let (db, t, routing) = setup(16, 2);
        let e = engine(db.clone(), routing, 2);
        let (h_rx, h_release, h_ready) = holder(&e, t, 0, 8);
        h_ready
            .recv_timeout(Duration::from_secs(5))
            .expect("holder locked key 0");
        let waiter = e.submit(increment(t, 0));
        let parked_deadline = Instant::now() + Duration::from_secs(5);
        while e.stats().deferrals < 1 {
            assert!(Instant::now() < parked_deadline, "waiter never parked");
            std::thread::sleep(Duration::from_millis(1));
        }

        assert!(e.kill_worker(0));
        wait_for_restarts(&e, 1);

        let w = waiter.recv_timeout(Duration::from_secs(5)).unwrap();
        match w {
            TxnOutcome::Aborted { ref reason } => assert!(
                reason.contains("partition worker unavailable"),
                "waiter abort must carry the retryable infrastructure \
                 taxonomy, got: {reason}"
            ),
            other => panic!("parked waiter must abort, got {other:?}"),
        }

        // Release the holder: it is doomed (its key-0 lock state was
        // salvaged from the dead worker), so even a fully successful run
        // finishes as a retryable abort, never a commit on salvaged state.
        h_release.send(()).unwrap();
        let h = h_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        match h {
            TxnOutcome::Aborted { ref reason } => assert!(
                reason.contains("partition worker unavailable"),
                "holder abort must be retryable, got: {reason}"
            ),
            other => panic!("doomed holder must abort, got {other:?}"),
        }

        let stats = e.stats();
        assert!(stats.orphan_aborts >= 1, "{stats:?}");
        assert_eq!(stats.worker_restarts, 1);

        // Both partitions converge back to serving, and the aborted
        // increments left no trace.
        assert_eq!(read_value(&db, t, 0), 0);
        assert!(e.execute(increment(t, 0)).is_committed());
        assert!(e.execute(increment(t, 8)).is_committed());
        assert_eq!(read_value(&db, t, 0), 1);
        e.shutdown();
    }

    #[test]
    fn shutdown_counts_stranded_transactions_instead_of_hanging_silently() {
        let (db, t, routing) = setup(4, 1);
        let e = DoraEngine::new(
            db,
            routing,
            DoraEngineConfig {
                workers: 1,
                lock_timeout: Duration::from_millis(50),
                submit_timeout: Duration::from_millis(50),
                shutdown_grace: Duration::ZERO,
                ..Default::default()
            },
        );
        let (entered_tx, entered_rx) = crossbeam_channel::bounded::<()>(1);
        let slow = FlowGraph::new(
            "Slow",
            vec![ActionSpec::write(t, 0, move |_, _, _| {
                let _ = entered_tx.send(());
                std::thread::sleep(Duration::from_millis(600));
                Ok(vec![])
            })],
        );
        let rx = e.submit(slow);
        entered_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("slow body entered");
        // The grace window (lock_timeout + submit_timeout + 0) expires
        // while the body is still running: shutdown must surface the
        // stranded transaction instead of pretending the drain was clean.
        let stranded = e.shutdown();
        assert_eq!(stranded, 1);
        // Stranded means reported, not killed: the worker still finished
        // the body during the drain phase and delivered the outcome.
        assert!(rx.recv().unwrap().is_committed());
    }

    #[test]
    fn seeded_chaos_schedules_lose_no_acked_commit() {
        // A deterministic mini chaos campaign: for each seed, run a
        // concurrent increment stream under an installed [`ChaosPlan`]
        // (worker kills at the Nth dequeue, delivery delays, forced
        // admission pressure) and assert the availability contract: every
        // injected kill is detected and the worker restarted, every abort
        // is a retryable class, every ACKED commit survives to storage,
        // and the engine converges back to all partitions serving.
        use crate::chaos::ChaosPlan;
        const WORKERS: usize = 4;
        const CLIENTS: usize = 4;
        const PER_CLIENT: i64 = 40;
        const ROWS: i64 = 32;
        for seed in [1u64, 7, 42] {
            let (db, t, routing) = setup(ROWS, WORKERS);
            let e = Arc::new(DoraEngine::new(
                db.clone(),
                routing,
                DoraEngineConfig {
                    workers: WORKERS,
                    lock_timeout: Duration::from_millis(200),
                    submit_timeout: Duration::from_millis(200),
                    ..Default::default()
                },
            ));
            e.install_chaos(ChaosPlan::seeded(seed, WORKERS, 50));

            let acked: Arc<Vec<std::sync::Mutex<Vec<u64>>>> = Arc::new(
                (0..CLIENTS)
                    .map(|_| std::sync::Mutex::new(vec![0u64; ROWS as usize]))
                    .collect(),
            );
            std::thread::scope(|s| {
                for c in 0..CLIENTS {
                    let e = Arc::clone(&e);
                    let acked = Arc::clone(&acked);
                    s.spawn(move || {
                        for i in 0..PER_CLIENT {
                            // Deterministic per-client key walk.
                            let key = (c as i64 * 13 + i * 7) % ROWS;
                            match e.execute(increment(t, key)) {
                                TxnOutcome::Committed => {
                                    acked[c].lock().unwrap()[key as usize] += 1;
                                }
                                TxnOutcome::Aborted { reason } => {
                                    let r = reason.to_lowercase();
                                    assert!(
                                        r.contains("worker unavailable")
                                            || r.contains("back-pressure")
                                            || r.contains("lock")
                                            || r.contains("timed out")
                                            || r.contains("timeout"),
                                        "seed {seed}: non-retryable abort \
                                         under chaos: {reason}"
                                    );
                                }
                            }
                        }
                    });
                }
            });

            // Every kill the plan actually fired must have been detected
            // and the worker restarted.
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let s = e.stats();
                if s.worker_restarts >= s.chaos_kills {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "seed {seed}: kills not all recovered: {s:?}"
                );
                std::thread::sleep(Duration::from_millis(2));
            }

            // Convergence: every partition serves again. Undo each probe
            // increment by hand so the audit below stays exact.
            for p in 0..WORKERS as i64 {
                let key = p * (ROWS / WORKERS as i64);
                assert!(
                    e.execute(increment(t, key)).is_committed(),
                    "seed {seed}: partition {p} did not resume serving"
                );
                let txn = db.begin();
                let row = db
                    .get(txn, t, &[Value::BigInt(key)], DORA_POLICY)
                    .unwrap()
                    .unwrap();
                let v = row[1].as_i64().unwrap();
                db.update(
                    txn,
                    t,
                    &[Value::BigInt(key)],
                    &[(1, Value::BigInt(v - 1))],
                    DORA_POLICY,
                )
                .unwrap();
                db.commit(txn).unwrap();
            }

            // The ground truth: each key's stored value equals exactly the
            // number of ACKED increments on it — nothing acked was lost,
            // nothing unacked leaked.
            for key in 0..ROWS {
                let expect: u64 = (0..CLIENTS)
                    .map(|c| acked[c].lock().unwrap()[key as usize])
                    .sum();
                assert_eq!(
                    read_value(&db, t, key),
                    expect as i64,
                    "seed {seed}: key {key} diverged from acked count"
                );
            }
            match Arc::try_unwrap(e) {
                Ok(e) => {
                    e.shutdown();
                }
                Err(_) => panic!("engine still shared after the stream"),
            }
        }
    }
}
